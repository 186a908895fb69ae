"""Fixtures shared by the test modules."""
import pytest

import congeg.verify as verify
from congeg.alphapoly import AlphaPoly


@pytest.fixture
def defective_member(monkeypatch):
    """The sweeps in `verify` get every degree-1 member off by the constant 1,
    as from a faulty constructor, so a failure path (status, witness,
    nonzero residual, exit 1) runs end to end.  The recorded audits, which a
    process computes once, are computed first, so they keep the true values."""
    verify.run_recorded_audits()
    build = verify.from_series

    def perturbed(spec):
        member = build(spec)
        return member + AlphaPoly.constant(spec.alpha, 1) if spec.n == 1 else member

    monkeypatch.setattr(verify, "from_series", perturbed)
