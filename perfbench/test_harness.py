"""Self-tests of the benchmark harness (stdlib unittest; pytest collects
them too).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import importlib
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

# sha256 of the generated inputs for seed 1.  A change here changes what
# every later measurement runs on, so it must come with a new baseline.
SEED1_DIGESTS = {
    "n2-elements":
        "f59399cca88f7daf22b45e97349e8f41471ad4d233ecb5e3b807580d5b2744dd",
    "cocycle-functor":
        "9ac1d7e6413b1ca80694a62dbd2c1ef78080f541aef6b16cb89b18257ac1293c",
    "rewrite-words":
        "702cdde9b67d78712f634686ad99204f44467946cd61f43c6ce1fb5e71c8ea80",
    "cli-reports":
        "64016f197c6808f31fcb2357dfbb16e84c922e76b75733683a856e68c7530f73",
}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(harness.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(harness.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(harness.percentile(list(range(11)), 90), 9.0)
        self.assertAlmostEqual(harness.percentile([0, 10], 25), 2.5)

    def test_ends_and_single_value(self):
        xs = [3.0, 1.0, 2.0]
        self.assertEqual(harness.percentile(xs, 0), 1.0)
        self.assertEqual(harness.percentile(xs, 100), 3.0)
        self.assertEqual(harness.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            harness.percentile([], 50)

    def test_tails_need_ten_samples_beyond(self):
        self.assertEqual(set(harness.tail_percentiles(list(range(99)))),
                         {"p50"})
        self.assertEqual(set(harness.tail_percentiles(list(range(100)))),
                         {"p50", "p90"})
        self.assertEqual(set(harness.tail_percentiles(list(range(1000)))),
                         {"p50", "p90", "p99"})


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_spans(self):
        # op [0,10] -> algebra [1,7] -> scalar [2,5], scalar [5.5,6.5]
        #           -> rewrite [8,9]
        spans = [("bench.op", -1, 0.0, 10.0),
                 ("algebra.mul", 0, 1.0, 7.0),
                 ("scalar.Scalar.__mul__", 1, 2.0, 5.0),
                 ("scalar.Scalar.__add__", 1, 5.5, 6.5),
                 ("rewrite.RewriteSystem.normal_form", 0, 8.0, 9.0)]
        names, parents, starts, ends = zip(*spans)
        got = harness.self_times(names, parents, starts, ends,
                                 lambda s: s.split(".")[0])
        self.assertEqual(dict(got), {"bench": 3.0, "algebra": 2.0,
                                     "scalar": 4.0, "rewrite": 1.0})
        self.assertEqual(sum(got.values()), 10.0)

    def test_nested_same_layer(self):
        # a layer calling itself: self time is never counted twice
        spans = [("scalar.a", -1, 0.0, 4.0), ("scalar.b", 0, 1.0, 3.0),
                 ("scalar.c", 1, 1.5, 2.0)]
        names, parents, starts, ends = zip(*spans)
        got = harness.self_times(names, parents, starts, ends,
                                 lambda s: s.split(".")[0])
        self.assertEqual(dict(got), {"scalar": 4.0})


class TracerTest(unittest.TestCase):
    def setUp(self):
        # the modules already imported, not `harness.load_rga()`: other
        # test modules in the same process hold classes of this import
        self.mods = {name.split(".")[-1]: importlib.import_module(name)
                     for name in harness.RGA_MODULES}

    def run_traced(self, call):
        tracer = harness.Tracer(self.mods)
        tracer.install()
        try:
            tally = harness.Tally()
            harness.run_op(harness.Op("t", call, lambda r: None), tally,
                           tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(tally.failed, 0)
        return tracer

    def test_every_binding_is_counted(self):
        alg = self.mods["algebra"]
        s2 = self.mods["rewrite"].RewriteSystem(2)
        t1 = alg.Element.generator(s2, 1)
        Scalar = self.mods["scalar"].Scalar

        def call():
            # the same function through three bindings, and the reflected
            # operator aliases
            self.mods["algebra"].mul(t1, t1)
            self.mods["category"].mul(t1, t1)
            self.mods["rga"].mul(t1, t1)
            return 2 * Scalar(1, 1) + (1 + Scalar(3))
        tracer = self.run_traced(call)
        self.assertEqual(tracer.counts["algebra.mul"], 3)
        self.assertEqual(tracer.counts["scalar.Scalar.__rmul__"], 1)
        self.assertEqual(tracer.counts["scalar.Scalar.__radd__"], 1)
        self.assertEqual(tracer.counts["scalar.Scalar.__add__"], 1)
        self.assertEqual(tracer.counts["bench.op"], 1)
        self.assertGreater(tracer.layer_self["algebra"], 0)

    def test_report_table_bindings_and_uninstall(self):
        reports = self.mods["reports"]
        before = dict(reports.REPORTS)
        mul_before = self.mods["category"].mul
        tracer = self.run_traced(
            lambda: reports.REPORTS["representation.txt"]())
        self.assertEqual(tracer.counts["reports.representation_report"], 1)
        self.assertGreater(tracer.counts["algebra.mul"], 0)
        self.assertEqual(reports.REPORTS, before)
        self.assertIs(self.mods["category"].mul, mul_before)
        self.assertNotIn("__wrapped__", vars(self.mods["scalar"].Scalar
                                             .__mul__))

    def test_observers(self):
        rw = self.mods["rewrite"]
        s3 = rw.RewriteSystem(3)
        tracer = self.run_traced(
            lambda: (s3.normal_form((1, 2, 3, 1, 2)), s3.normal_form((1, 1)),
                     s3.enumerate_normal_forms(2)))
        self.assertEqual(tracer.extra["rewrite.letters_in"], 7)
        self.assertEqual(tracer.extra["rewrite.letters_removed"], 3 + 2)
        self.assertEqual(tracer.extra["rewrite.enumerated_words"],
                         sum(workloads.count_normal_words(3, 2)))


class InputsTest(unittest.TestCase):
    def test_seed_fixes_the_inputs(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                first = workloads.inputs_digest(name, 1)
                self.assertEqual(first, workloads.inputs_digest(name, 1))
                self.assertNotEqual(first, workloads.inputs_digest(name, 2))
                self.assertEqual(first, SEED1_DIGESTS[name])

    def test_independent_oracles(self):
        self.assertEqual(workloads.count_normal_words(2, 5),
                         [1, 2, 2, 0, 0, 0])
        self.assertEqual(workloads.count_normal_words(3, 2), [1, 3, 6])
        self.assertTrue(workloads.has_redex((1, 2, 3, 1), 3))
        self.assertFalse(workloads.has_redex((1, 3, 2, 1), 3))
        self.assertTrue(workloads.has_redex((2, 1, 1), 3))
        from random import Random
        rng = Random(3)
        for d in (1, 2, 5):
            p, inv = workloads.rand_invertible(rng, d, unit_diag=True)
            self.assertEqual(workloads.qmatmul(p, inv), workloads.qidentity(d))
        # T1 T2 T1 = T1 through the component formulas
        e = workloads.n2_left_matrix
        self.assertEqual(workloads.qmatmul(e(1), workloads.qmatmul(e(2), e(1))),
                         e(1))
        self.assertEqual(e(0), workloads.qidentity(5))


if __name__ == "__main__":
    unittest.main()
