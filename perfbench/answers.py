"""Known answers for every benchmark op.

Engineered hunt wirings: the verdict at t = 1 is the one the test suite
asserts (tests/test_pipeline.py).  Under blow-up three wirings leave the
regime; ``python3 perfbench/blowup.py --check 1 2 3 8 16`` lists them, and
they are recorded here as found, not tuned away.  Every other op's answer
is known by construction and checked in ``workloads``.
"""

from __future__ import annotations

# wiring -> (hunt-config exit code, witness tag or None) at t = 1
HUNT_AT_T1 = {
    "d1": (0, "D1"), "exp": (0, "D6"), "wa_t1": (0, "D6"), "k2": (0, "D6"),
    "unmet": (2, None), "t5": (0, "D10"), "huge_b": (0, "D2"),
    "cb_t5": (0, "D9"), "huge_i2": (0, "D3"), "huge_i3": (0, "D4"),
    "huge_i4": (0, "D5"), "wa_t2": (0, "D7"), "wa_t3": (0, "D8"),
}

# wiring -> smallest blow-up factor at which the hunt goes out of regime
# (exit 3) while still writing its witness, which then fails verification.
OUT_OF_REGIME_FROM = {"t5": 3, "cb_t5": 8, "wa_t3": 8}

EXIT_OF_STATUS = {"found": 0, "hypotheses-unmet": 2, "out-of-regime": 3}


def expected_hunt(wiring: str, t: int) -> tuple:
    """(hunt exit code, witness tag or None) for a t-fold blow-up."""
    code, tag = HUNT_AT_T1[wiring]
    if t >= OUT_OF_REGIME_FROM.get(wiring, t + 1):
        code = 3
    return code, tag


def expected_verify(hunt_code: int) -> int:
    """verify-witness passes (0) exactly on witnesses of found hunts."""
    return 0 if hunt_code == 0 else 3
