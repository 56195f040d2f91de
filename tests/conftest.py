"""Shared test fixtures."""

import pytest

from nslag import harness, stepper

# module constants a test may patch; each test must leave them as it found
# them, or a later test runs on the patched value (a tiny leaked CFL makes
# a run take millions of steps)
_STEP_CONSTANTS = ("CFL", "VOLUME_CHANGE", "STEP_ERROR", "STEP_CAP",
                   "DT_MIN", "MAX_RETRIES", "POSITIVITY_FLOOR")


@pytest.fixture(autouse=True)
def _no_leaked_patches():
    """Fail the test that leaves a step constant or harness.THRESHOLDS
    changed, once its own fixtures are torn down, and put them back."""
    constants = {name: getattr(stepper, name) for name in _STEP_CONSTANTS}
    thresholds = dict(harness.THRESHOLDS)
    yield
    leaked = {name: getattr(stepper, name) for name in _STEP_CONSTANTS
              if getattr(stepper, name) != constants[name]}
    for name in leaked:
        setattr(stepper, name, constants[name])
    now = harness.THRESHOLDS
    for key in sorted({*thresholds, *now}):
        if now.get(key) != thresholds.get(key):
            leaked[f"THRESHOLDS[{key!r}]"] = now.get(key)
    now.clear()
    now.update(thresholds)
    if leaked:
        pytest.fail(f"the test left patched: {leaked}", pytrace=False)
