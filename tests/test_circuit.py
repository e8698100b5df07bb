import math

import mpmath
import pytest

from casimir.engine import finite_diff
from casimir.dispersion import LorentzModel, DEFAULT_RESONANCE_HALFWIDTH
from casimir.circuit import CircuitSpec, eigenfrequency, circuit_energy, adiabatic_variation_check

MODEL = LorentzModel(eps_bar=2.0, omega0=10.0)
DISPERSIVE = CircuitSpec(L=1.0, eps_model=MODEL)
# the empty capacitor: eps = 1, its resonance far above every eigenfrequency below
VACUUM = LorentzModel(eps_bar=1.0, omega0=1e3)

# x = omega^2 solves x^2 - 201 x + 100 = 0 for L = C0 = 1, eps_bar = 2, omega0 = 10
X_STAR = (201.0 - math.sqrt(40001.0)) / 2.0
OMEGA_STAR = math.sqrt(X_STAR)
# W = C(w*) + (w*/2) dC/dw evaluated on the oracle root (50-digit arithmetic)
W_CIRC = 2.0100501249992188


def _mp_eigenfrequency(L, a, A_plate, eps_bar, omega0):
    # smaller root of x^2 - (eps_bar omega0^2 + k^2) x + k^2 omega0^2 = 0,
    # x = omega^2, k^2 = a/(L A_plate), in 40-digit arithmetic
    with mpmath.workdps(40):
        k2 = mpmath.mpf(a) / (mpmath.mpf(L) * mpmath.mpf(A_plate))
        w2 = mpmath.mpf(omega0) ** 2
        b = mpmath.mpf(eps_bar) * w2 + k2
        return float(mpmath.sqrt((b - mpmath.sqrt(b * b - 4 * k2 * w2)) / 2))


ORACLE_GRID = [
    (1.0, 1.0, 1.0, 2.0, 10.0),
    (1e4, 1e-2, 1e3, 6.0, 1e-3),
    (1e6, 1e-3, 1e6, 1.0 + 1e-12, 1e-3),
    (3e-3, 2e2, 7e1, 2.0, 10.0),  # root at 0.947 omega0, next to the zone
    (1e-2, 10.0, 1e-1, 1.0 + 1e-12, 1e3),
    (1e-7, 0.3, 5.0, 6.0, 1e3),
]


class TestEigenfrequency:
    def test_nondispersive(self):
        assert eigenfrequency(CircuitSpec(L=4.0, eps_model=VACUUM)) == pytest.approx(0.5, rel=1e-13)
        # omega = sqrt(a/(L A_plate)) = sqrt(9/(4 * 0.25))
        assert eigenfrequency(
            CircuitSpec(L=4.0, eps_model=VACUUM, a=9.0, A_plate=0.25)
        ) == pytest.approx(3.0, rel=1e-13)
        # L C0 = 1e400 overflows a double, the eigenfrequency 1e-200 does not
        assert eigenfrequency(
            CircuitSpec(L=1e200, eps_model=VACUUM, A_plate=1e200)
        ) == pytest.approx(1e-200, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("L,a,A_plate,eps_bar,omega0", ORACLE_GRID)
    def test_dispersive_oracle(self, L, a, A_plate, eps_bar, omega0):
        spec = CircuitSpec(L=L, a=a, A_plate=A_plate, eps_model=LorentzModel(eps_bar, omega0))
        ref = _mp_eigenfrequency(L, a, A_plate, eps_bar, omega0)
        assert eigenfrequency(spec) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_resonance_zone_boundary(self):
        # the root sits at omega0 (1 - delta) = 9.5 when k^2 = x eps(sqrt x),
        # x = 9.5^2; a slightly larger L moves it below, a smaller one above
        edge = MODEL.omega0 * (1.0 - DEFAULT_RESONANCE_HALFWIDTH)
        x = edge * edge
        L_edge = 1.0 / (x * (1.0 + (MODEL.eps_bar - 1.0) / (1.0 - x / MODEL.omega0**2)))
        w = eigenfrequency(CircuitSpec(L=L_edge * (1.0 + 1e-9), eps_model=MODEL))
        assert edge * (1.0 - 1e-8) < w < edge
        with pytest.raises(ValueError):
            eigenfrequency(CircuitSpec(L=L_edge * (1.0 - 1e-9), eps_model=MODEL))

    def test_large_inductance_limit(self):
        # omega* -> 1/sqrt(L eps_bar C0) when the root sinks far below omega0
        L = 1e6
        w = eigenfrequency(CircuitSpec(L=L, eps_model=MODEL))
        assert w == pytest.approx(1.0 / math.sqrt(L * 2.0), rel=1e-6)

    def test_separation_raises_frequency(self):
        # C ~ 1/a, so pulling the plates apart stiffens the circuit
        w1 = eigenfrequency(DISPERSIVE)
        w2 = eigenfrequency(CircuitSpec(L=1.0, a=2.0, eps_model=MODEL))
        assert w2 > w1

    def test_no_root_below_resonance(self):
        # tiny L pushes the would-be root into the resonance zone
        with pytest.raises(ValueError):
            eigenfrequency(CircuitSpec(L=1e-4, eps_model=MODEL))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CircuitSpec(L=0.0, eps_model=VACUUM)
        with pytest.raises(ValueError):
            CircuitSpec(L=1.0, eps_model=VACUUM, a=-1.0)
        for bad in (math.nan, math.inf):
            for field in ("L", "a", "A_plate", "phi_sq_bar"):
                with pytest.raises(ValueError):
                    CircuitSpec(**{"L": 1.0, "eps_model": VACUUM, field: bad})
        with pytest.raises(ValueError):
            CircuitSpec(L=1.0, eps_model=VACUUM, phi_sq_bar=-1.0)
        CircuitSpec(L=1.0, eps_model=VACUUM, phi_sq_bar=0.0)  # zero amplitude allowed
        with pytest.raises(TypeError):
            CircuitSpec(L=1.0)  # the dielectric is never implied


def _mp_circuit_energy(L, a, A_plate, eps_bar, omega0):
    # C + omega C'/2 at the 40-digit root, phi_sq_bar = 1
    with mpmath.workdps(40):
        k2 = mpmath.mpf(a) / (mpmath.mpf(L) * mpmath.mpf(A_plate))
        w0 = mpmath.mpf(omega0)
        b = mpmath.mpf(eps_bar) * w0**2 + k2
        w = mpmath.sqrt((b - mpmath.sqrt(b * b - 4 * k2 * w0**2)) / 2)
        c0, e1, g = mpmath.mpf(A_plate) / mpmath.mpf(a), mpmath.mpf(eps_bar) - 1, 1 - (w / w0) ** 2
        return c0 * (1 + e1 / g) + w * c0 * e1 * w / (w0**2 * g**2)


class TestCircuitEnergy:
    @pytest.mark.parametrize("L,a,A_plate,eps_bar,omega0", ORACLE_GRID)
    def test_rounding_bound_against_mpmath(self, L, a, A_plate, eps_bar, omega0):
        spec = CircuitSpec(L=L, a=a, A_plate=A_plate, eps_model=LorentzModel(eps_bar, omega0))
        e = circuit_energy(spec)
        assert abs(e.value - _mp_circuit_energy(L, a, A_plate, eps_bar, omega0)) <= e.err_estimate
        # below the 1e-12 relative it replaces; largest next to the resonance zone
        assert e.err_estimate <= 1e-13 * e.value

    def test_nondispersive_rounding_bound(self):
        e = circuit_energy(CircuitSpec(L=4.0, eps_model=VACUUM, a=3.0, A_plate=0.7, phi_sq_bar=1.3))
        with mpmath.workdps(40):
            ref = mpmath.mpf(0.7) / 3 * mpmath.mpf(1.3)
        assert 0.0 < abs(e.value - ref) <= e.err_estimate

    def test_nondispersive_halves(self):
        # d(omega^2 C)/d omega = 2 omega C, so W = C phi^2: equal capacitor
        # and inductor halves C phi^2/2 each
        spec = CircuitSpec(L=4.0, eps_model=VACUUM, phi_sq_bar=1.0)
        w = eigenfrequency(spec)
        assert circuit_energy(spec).value == pytest.approx(spec.capacitance(w), rel=1e-13)
        assert spec.dC_domega(w) == 0.0

    def test_dispersive_value(self):
        assert eigenfrequency(DISPERSIVE) == pytest.approx(OMEGA_STAR, rel=1e-12)
        assert circuit_energy(DISPERSIVE).value == pytest.approx(W_CIRC, rel=1e-12)

    def test_capacitance_derivative_cross_check(self):
        w = eigenfrequency(DISPERSIVE)
        fd = finite_diff(lambda x: DISPERSIVE.capacitance(x), w, 1e-6)
        assert DISPERSIVE.dC_domega(w) == pytest.approx(fd.value, rel=1e-6)

    def test_amplitude_linearity(self):
        one = circuit_energy(DISPERSIVE).value
        two = circuit_energy(CircuitSpec(L=1.0, eps_model=MODEL, phi_sq_bar=2.0)).value
        assert two == pytest.approx(2.0 * one, rel=1e-13)

    def test_energy_balance_identity(self):
        # (1/2) L J^2 = (1/2) C phi^2 at the eigenfrequency, i.e. w^2 L C = 1
        w = eigenfrequency(DISPERSIVE)
        assert abs(w * w * DISPERSIVE.L * DISPERSIVE.capacitance(w) - 1.0) <= 1e-12


class TestAdiabaticVariation:
    def test_nondispersive_first_order_constant(self):
        # for C = C0/a the ratio expands as 1 + (3/4) delta + O(delta^2)
        spec = CircuitSpec(L=1.0, eps_model=VACUUM)
        delta = 1e-4
        lhs, rhs = adiabatic_variation_check(spec, delta)
        assert (lhs / rhs - 1.0) / delta == pytest.approx(0.75, rel=1e-3)

    def test_dispersive_first_order_convergence(self):
        r3 = adiabatic_variation_check(DISPERSIVE, 1e-3)
        r4 = adiabatic_variation_check(DISPERSIVE, 1e-4)
        dev3 = abs(r3[0] / r3[1] - 1.0)
        dev4 = abs(r4[0] / r4[1] - 1.0)
        assert dev4 == pytest.approx(0.1 * dev3, rel=0.05)

    def test_sign_of_static_variation(self):
        # pulling the plates apart lowers C at fixed frequency, so the
        # insulated-capacitor energy change is positive
        lhs, rhs = adiabatic_variation_check(DISPERSIVE, 1e-3)
        assert rhs > 0
        assert lhs > 0

    def test_frequency_feedback_consistency(self):
        # re-solving at a(1+delta) reproduces delta C = (delta C)_static
        # + C'(omega) delta omega up to second order
        delta = 1e-3
        w1 = eigenfrequency(DISPERSIVE)
        moved = CircuitSpec(L=1.0, a=1.0 + delta, eps_model=MODEL)
        w2 = eigenfrequency(moved)
        total = moved.capacitance(w2) - DISPERSIVE.capacitance(w1)
        static = moved.capacitance(w1) - DISPERSIVE.capacitance(w1)
        chained = static + DISPERSIVE.dC_domega(w1) * (w2 - w1)
        assert abs(total - chained) <= 10.0 * delta**2 * abs(DISPERSIVE.capacitance(w1))

    def test_rejects_bad_displacement(self):
        with pytest.raises(ValueError):
            adiabatic_variation_check(DISPERSIVE, 0.0)
