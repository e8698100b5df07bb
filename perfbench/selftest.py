"""Tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py        # from the repository root
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402

import casimir  # noqa: E402
from oracle import Oracle  # noqa: E402
from run import END_TO_END, check_values, layer_metrics, parse_importtime  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Value, _crosscheck_refs  # noqa: E402


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_points(self):
        for name, w in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(w.points(7), w.points(7))
                self.assertNotEqual(w.points(7), w.points(8))

    def test_failing_inputs_are_kept(self):
        self.assertEqual(sum(p[0] == 3 for p in WORKLOADS["modesum"].points(3)), 2)
        self.assertIn(("cutoff-sum", "--D", "3"),
                      {argv[:3] for argv in WORKLOADS["cli"].points(3)})


class SelfTimeTests(unittest.TestCase):
    def test_nested_tree(self):
        # outer [0, 10] contains inner [1, 3] and inner [4, 5]; inner [4, 5]
        # contains leaf [4.5, 4.75]
        ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.75, 5.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))

        def leaf():
            return 1

        def inner(deep):
            return wrapped_leaf() if deep else 0

        def outer():
            return wrapped_inner(False) + wrapped_inner(True)

        wrapped_leaf = tracer.wrap("m.leaf", leaf)
        wrapped_inner = tracer.wrap("m.inner", inner)
        self.assertEqual(tracer.wrap("m.outer", outer)(), 1)
        st = tracer.self_times()
        self.assertAlmostEqual(st["m.outer"], 10.0 - 2.0 - 1.0)
        self.assertAlmostEqual(st["m.inner"], 2.0 + 1.0 - 0.25)
        self.assertAlmostEqual(st["m.leaf"], 0.25)
        self.assertEqual(list(tracer.parent), [-1, 0, 0, 2])
        self.assertEqual(sum(st.values()), 10.0)

    def test_repeats_compare_closures_by_value(self):
        tracer = Tracer()
        f = tracer.wrap("m.f", lambda g, x: g(x))
        for a in (1.0, 1.0, 2.0):
            f(lambda k, a=a: k * a, 3.0)
        for a in (1.0, 1.0, 2.0):
            f((lambda b: (lambda k: k * b))(a), 3.0)
        self.assertEqual(tracer.calls["m.f"], 6)
        self.assertEqual(tracer.repeats["m.f"], 2)


class PatchTests(unittest.TestCase):
    def snapshot(self):
        return {
            name: dict(vars(mod))
            for name, mod in sys.modules.items()
            if name == "casimir" or name.startswith("casimir.")
        }

    def test_install_patches_every_binding_and_uninstall_restores(self):
        before = self.snapshot()
        originals = {
            "engine": casimir.engine.adaptive_quad,
            "matsubara": casimir.matsubara.adaptive_quad,
            "dispersion": casimir.dispersion.spectral_energy_density,
            "hyperdim": casimir.hyperdim.photon_index,
            "package": casimir.free_energy,
        }
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(casimir.engine.adaptive_quad, originals["engine"])
            self.assertIs(casimir.matsubara.adaptive_quad, casimir.engine.adaptive_quad)
            self.assertIsNot(casimir.dispersion.spectral_energy_density, originals["dispersion"])
            self.assertIsNot(casimir.hyperdim.photon_index, originals["hyperdim"])
            self.assertIsNot(casimir.free_energy, originals["package"])
            model = casimir.LorentzModel(eps_bar=2.0, omega0=1.0)
            casimir.dispersion.photon_index(model, 0.5)
            res = casimir.engine.adaptive_quad(lambda x: x * x, 0.0, 1.0)
        finally:
            tracer.uninstall()
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for mod, names in before.items():
            for attr, obj in names.items():
                self.assertIs(after[mod][attr], obj, f"{mod}.{attr}")
        self.assertEqual(tracer.calls["dispersion.photon_index"], 1)
        self.assertEqual(tracer.calls["engine.find_root"], 1)
        self.assertGreater(tracer.counts["engine.find_root.fevals"], 2)
        self.assertEqual(tracer.counts["engine.adaptive_quad.evals"], res.evaluations)
        self.assertTrue(all(n.split(".")[0] in MODULES for n in tracer.names))


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.o = Oracle()
        cls.ctx = cls.o.ctx

    def close(self, value, ref, rel=1e-20):
        self.assertLessEqual(abs(value - ref), rel * abs(ref), f"{value} vs {ref}")

    def test_zero_temperature_constants(self):
        ctx = self.ctx
        self.close(self.o._F0(1.0, 1.0), -ctx.pi**2 / 720)
        self.close(self.o._PD(4, 1.0, 1.0), -ctx.pi**2 / 240)
        # w_I in vacuum: (1/(16 pi^2)) int u^2 ln(1 - e^-u) du = -2 zeta(4)/(16 pi^2)
        self.close(self.o._wI(1.0, 3.0, 1.0), -2 * ctx.zeta(4) / (16 * ctx.pi**2))
        self.close(ctx.zeta(4), ctx.pi**4 / 90)

    def test_low_temperature_expansions(self):
        # exact up to terms of order e^(-pi/naT) ~ 1e-27 at naT = 0.05
        ctx = self.ctx
        a, n, T = 1.3, 1.2, 0.05 / (1.3 * 1.2)
        nat = ctx.mpf(n) * a * T
        lead = -ctx.pi**2 / (720 * ctx.mpf(n) * ctx.mpf(a) ** 3)
        z3 = ctx.zeta(3)
        self.close(self.o._F(a, T, n),
                   lead * (1 + 360 * (nat / ctx.pi) ** 3 * z3 - (2 * nat) ** 4))
        self.close(self.o._U(a, T, n),
                   lead * (1 - 720 * (nat / ctx.pi) ** 3 * z3 + 48 * nat**4))
        P = -ctx.pi**2 / (240 * ctx.mpf(n) * ctx.mpf(a) ** 4) \
            - ctx.pi**2 * ctx.mpf(n) ** 3 * ctx.mpf(T) ** 4 / 45
        self.close(self.o._P(a, T, n), P)

    def test_mode_sums(self):
        ctx = self.ctx
        o = self.o
        a, lam = 1.1, 0.7
        per_mode = o._a_d(4) * o._sum(lambda m: o._mode_integral(4, ctx.pi * m / a, ctx.mpf(lam)))
        self.close(o._mode(4, a, 1.0, lam), per_mode)
        q, lam_ = ctx.pi * 2 / a, ctx.mpf(lam)
        z = lam_ * q
        top = ctx.acosh(120 / z + 1)  # e^(-z cosh t) < e^(-120) beyond
        for D in (3, 5, 6, 7):
            # E = q cosh t, integrated by Gauss-Legendre on a finite range
            direct = q ** (D - 1) * ctx.quad(
                lambda t: ctx.sinh(t) ** (D - 3) * ctx.cosh(t) ** 2 * ctx.exp(-z * ctx.cosh(t)),
                ctx.linspace(0, top, 5), method="gauss-legendre")
            self.close(o._mode_integral(D, q, lam_), direct, 1e-28)
        # eps_bar = 1: the photon branch is omega = k, so the dispersive sum is the vacuum one
        self.close(o._dmode(5, a, 1.0, 2.0, lam), o._mode(5, a, 1.0, lam), 1e-22)

    def test_circuit_eigenfrequency(self):
        o = self.o
        L, a, A, eb, w0 = 1.3, 1.1, 0.7, 2.5, 8.0
        w = o._omega_circ(L, a, A, eb, w0)
        self.close(w * w * L * o._cap(A, a, eb, w0, w), mpmath.mpf(1), 1e-30)

    def test_crosscheck_rows_have_references(self):
        for name in ("U_direct=U_resummed@naT=0.05", "E=H@(k=0.3,z=2)", "(D-1)w1=P@D=5",
                     "-d(a*w1)/da=P@D=4", "cutoff_exponent~D", "w_I(omega0->inf)=static"):
            lhs, rhs = _crosscheck_refs(name)
            self.assertIsNotNone(lhs, name)
            self.assertIsNotNone(rhs, name)
        self.assertEqual(_crosscheck_refs("W_II_scan_monotone"), (None, None))


class CheckValuesTests(unittest.TestCase):
    class UnitOracle:
        def ref(self, key):
            return 1.0

    def test_known_inaccurate_value_fails_and_counts_in_error_bars(self):
        values = [[
            Value("hyperdim.dispersive_hyper_energy", 1.0001, ("k",), err=1e-9),
            Value("hyperdim.pressure_closed", 1.0 + 1e-12, ("k",), err=1e-10),
            Value("hyperdim.pressure_closed", 1.0 + 1e-11, ("k",)),
            Value("hyperdim.cutoff_mode_energy", None, None, failed="ZeroDivisionError"),
        ]]
        check = check_values(values, self.UnitOracle())
        self.assertEqual(check["values"], 4)
        self.assertEqual(check["failed"], 2)
        self.assertIn(("hyperdim.dispersive_hyper_energy", "inaccurate"), check["failures"])
        self.assertEqual((check["bounded"], check["bound_held"]), (2, 1))
        self.assertEqual(check["wrong"], [])
        self.assertAlmostEqual(check["digits_min"][0], 11.0, places=3)
        self.assertEqual(check["digits_min"][1], "hyperdim.pressure_closed")
        self.assertAlmostEqual(check["worst"][0], 4.0, places=3)
        self.assertEqual(check["worst"][1], "hyperdim.dispersive_hyper_energy")

    def test_inaccurate_value_of_another_route_is_wrong(self):
        check = check_values([[Value("matsubara.pressure", 1.001, ("k",))]], self.UnitOracle())
        self.assertEqual(check["failed"], 0)
        self.assertEqual(len(check["wrong"]), 1)


class ImportTimeTests(unittest.TestCase):
    def test_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       120 |        120 |   numpy.core",
            "import time:      1000 |     150000 | numpy",
            "import time:       500 |      40000 | mpmath",
            "import time:       300 |        300 |   casimir.engine",
            "import time:       200 |     190800 | casimir",
        ])
        self.assertEqual(parse_importtime(text), {
            "import.numpy_ms": 150.0, "import.mpmath_ms": 40.0, "import.casimir_self_ms": 0.5})


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(END_TO_END))
        layers = list(parse_importtime("")) + list(layer_metrics(Tracer(), 0.0, 0.0))
        self.assertEqual([m["name"] for m in bench["per_layer"]], layers)


if __name__ == "__main__":
    unittest.main()
