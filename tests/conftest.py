"""Fixtures shared by the test modules."""
import types

import pytest

import congeg.gegenbauer as gegenbauer
import congeg.verify as verify
from congeg.alphapoly import AlphaPoly


@pytest.fixture
def defective_member(monkeypatch):
    """The sweeps in `verify` get every degree-1 member off by the constant 1,
    as from a faulty constructor, so a failure path (status, witness,
    nonzero residual, exit 1) runs end to end.  The sweeps look their series
    kernel up as `verify.gegenbauer._series_coeffs`, so that reference is
    rebound to a copy of the module's names with a defective kernel; the
    module itself, and so every other caller (the public constructors,
    `legendre`, quadrature), keeps the true one.  The recorded audits, which
    a process computes once, are computed first, so they keep the true
    values."""
    verify.run_recorded_audits()
    build = gegenbauer._series_coeffs

    def perturbed(n, p, q):
        member = build(n, p, q)
        return member + AlphaPoly.constant(1) if n == 1 else member

    monkeypatch.setattr(verify, "gegenbauer", types.SimpleNamespace(
        **{**vars(gegenbauer), "_series_coeffs": perturbed}))
