"""Every printed route must move a cross-check row: a route whose value is
scaled by (1 + 1e-8) on the module attribute that casimir.checks calls
makes at least one row of checks.crosscheck() fail."""

import dataclasses

import pytest

from casimir import checks, circuit, dispersion, hyperdim, matsubara

DELTA = 1e-8


def _scaled(fn, when):
    def wrapper(cfg, *args, **kwargs):
        ev = fn(cfg, *args, **kwargs)
        return dataclasses.replace(ev, value=ev.value * (1.0 + DELTA)) if when(cfg) else ev

    return wrapper


def _failing_rows():
    return [r["check"] for r in checks.crosscheck() if not r["passed"]]


@pytest.mark.parametrize("D", [4, 5, 8])
def test_mode_energy_moves_a_row(D, monkeypatch):
    # cutoff-sum prints mode_energy; at D = 5 and 8 only the per-mode rows see it
    monkeypatch.setattr(hyperdim, "mode_energy", _scaled(hyperdim.mode_energy, lambda c: c.D == D))
    assert f"mode_energy=per_mode_sum@D={D}" in _failing_rows()


@pytest.mark.parametrize("D", [5, 6, 8])
def test_pressure_closed_moves_a_row(D, monkeypatch):
    # pressure --T 0 --D prints hyperdim.pressure_closed away from D = 4
    scaled = _scaled(hyperdim.pressure_closed, lambda c: c.D == D)
    monkeypatch.setattr(hyperdim, "pressure_closed", scaled)
    assert f"P_quad=P_closed@D={D}" in _failing_rows()


def test_w_I_energy_moves_a_row(monkeypatch):
    # dispersive prints w_I; the row at omega0 = 1e4 sees a change only from 1e-6
    monkeypatch.setattr(dispersion, "w_I_energy", _scaled(dispersion.w_I_energy, lambda model: True))
    assert "w_I(omega0=1e5)=static" in _failing_rows()


def test_w2_density_cutoff_moves_a_row(monkeypatch):
    # dispersive --omega-max prints the scan of W_II, so the scan scales with the value
    w2 = dispersion.w2_density_cutoff

    def scaled(*args, **kwargs):
        res = w2(*args, **kwargs)
        return dispersion.CutoffEnergyResult(
            dataclasses.replace(res.value, value=res.value.value * (1.0 + DELTA)),
            tuple((om, v * (1.0 + DELTA)) for om, v in res.scan),
        )

    monkeypatch.setattr(dispersion, "w2_density_cutoff", scaled)
    assert "W_II(omega0->inf)=closed" in _failing_rows()


def test_pressure_T0_moves_a_row(monkeypatch):
    # pressure --T 0 at D = 4 prints matsubara.pressure's closed form
    monkeypatch.setattr(matsubara, "pressure", _scaled(matsubara.pressure, lambda c: c.T == 0))
    assert "P_T0=P_closed@D=4" in _failing_rows()


def test_free_energy_lowT_moves_a_row(monkeypatch):
    # below the naT = 0.3 split free_energy reads the dual side of the kernel
    monkeypatch.setattr(matsubara, "free_energy", _scaled(matsubara.free_energy, lambda c: c.naT < 0.3))
    assert "F=F_lowT@naT=0.05" in _failing_rows()


def test_capacitance_derivative_moves_a_row(monkeypatch):
    # circuit prints C + omega dC/d omega / 2; the adiabatic row sees dC/d omega only at 1e-2
    dC = circuit.CircuitSpec.dC_domega
    monkeypatch.setattr(circuit.CircuitSpec, "dC_domega", lambda spec, w: dC(spec, w) * (1.0 + DELTA))
    assert "circuit:dC_domega=finite_diff" in _failing_rows()
