"""Routes that combine several engine results: their convergence flag and
evaluation count must cover every result they used."""

import dataclasses
import math

import pytest

from casimir import dispersion, engine, green_em, hyperdim, matsubara
from casimir.matsubara import CavityConfig

MODULES = (matsubara, green_em, hyperdim, dispersion)
ENGINE_CALLS = ("adaptive_quad", "nested_quad", "cosh_quad", "sum_series", "nested_sum", "finite_diff")
QUADRATURES = ("adaptive_quad", "cosh_quad")

# the routes that fold inner results; each is cheap at these inputs
ROUTES = {
    "free_energy_quad": lambda: matsubara.free_energy_quad(CavityConfig(a=1.0, T=1.0)),
    "pressure_quad": lambda: matsubara.pressure_quad(CavityConfig(a=1.0, T=1.0)),
    "internal_energy_from_F": lambda: matsubara.internal_energy_from_F(CavityConfig(a=1.0, T=1.0)),
    # mode_energy is one cosh_quad; its check route folds one per mode
    "mode_energy": lambda: hyperdim._mode_energy_per_mode(hyperdim.HyperConfig(dim=4), 1.0),
    "mode_energy_D5": lambda: hyperdim._mode_energy_per_mode(hyperdim.HyperConfig(dim=5), 1.0),
    "mode_energy_summed": lambda: hyperdim.mode_energy(hyperdim.HyperConfig(dim=4), 1.0),
    # across the polariton gap: one or two quadratures per mode
    "dispersive_hyper_energy": lambda: hyperdim.dispersive_hyper_energy(
        hyperdim.HyperConfig(dim=5), dispersion.LorentzModel(2.0, 4.0), 1.0
    ),
    "pressure_quadrature_cartesian": lambda: hyperdim.pressure_quadrature(
        hyperdim.HyperConfig(dim=4), route="cartesian"
    ),
    "em_energy_T0": lambda: green_em.em_energy_T0(CavityConfig(a=1.0, T=0.0)),
    "w2_density_cutoff": lambda: dispersion.w2_density_cutoff(
        dispersion.LorentzModel(2.0, 1.0), CavityConfig(a=1.0, T=0.0), dispersion.CutoffSpec(2.0)
    ).value,
}


def wrap_engine(monkeypatch, after):
    """Route every module's engine bindings through after(name, result, inner),
    inner the results of the wrapped calls made while this one ran (those
    of a nested_quad's integrand or of a nested_sum's terms)."""
    frames = [[]]
    for mod in MODULES:
        for name in ENGINE_CALLS:
            fn = getattr(mod, name, None)
            if fn is getattr(engine, name):

                def wrapper(*args, _fn=fn, _name=name, **kwargs):
                    frames.append([])
                    res = _fn(*args, **kwargs)
                    res = after(_name, res, frames.pop())
                    frames[-1].append(res)
                    return res

                monkeypatch.setattr(mod, name, wrapper)


# the routes whose inner results include several quadratures;
# internal_energy_from_F differences the S kernel, which sums without the
# engine, and the summed mode_energy returns its one quadrature's flag
QUADRATURE_ROUTES = [
    name for name in ROUTES if name not in ("internal_energy_from_F", "mode_energy_summed")
]


@pytest.mark.parametrize("route", QUADRATURE_ROUTES)
def test_one_unconverged_inner_result_is_reported(route, monkeypatch):
    assert ROUTES[route]().converged
    calls = []

    def flag_second_quadrature(name, res, inner):
        if name in QUADRATURES:
            calls.append(res)
            if len(calls) == 2:
                return dataclasses.replace(res, converged=False)
        return res

    wrap_engine(monkeypatch, flag_second_quadrature)
    res = ROUTES[route]()
    assert len(calls) > 2
    assert math.isfinite(res.value) and not res.converged


def test_one_unconverged_kernel_sum_is_reported():
    assert ROUTES["internal_energy_from_F"]().converged
    res = matsubara.internal_energy_from_F(CavityConfig(a=1.0, T=1.0), engine.Tolerance(max_iter=1))
    assert math.isfinite(res.value) and not res.converged


@pytest.mark.parametrize("route", ROUTES)
def test_evaluations_sum_every_engine_result(route, monkeypatch):
    counted = []

    def count(name, res, inner):
        own = res.evaluations
        if name == "nested_quad":
            # its inner results are counted on their own; the rest is the
            # outer adaptive_quad's, 45 + 60 * splits
            own -= sum(r.evaluations for r in inner)
            assert inner and own >= 45 and (own - 45) % 60 == 0
        elif name == "nested_sum":
            # the rest is sum_series' count of terms, one or more
            # quadratures each
            own -= sum(r.evaluations for r in inner)
            assert 1 <= own <= len(inner)
        counted.append(own)
        return res

    wrap_engine(monkeypatch, count)
    res = ROUTES[route]()
    assert res.evaluations == sum(counted) > 0


def test_closed_forms_and_kernel_spend_no_evaluations():
    cfg = CavityConfig(a=1.0, T=1.0)
    for ev in (matsubara.free_energy(cfg), matsubara.internal_energy(cfg), matsubara.pressure(cfg),
               matsubara.free_energy(CavityConfig(a=1.0, T=0.0)), hyperdim.pressure_closed(hyperdim.HyperConfig(dim=5))):
        assert ev.evaluations == 0
