"""Tests for the benchmark's own rules.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import unittest

from measure import Outcome, Span, Tally, attempt, closed_loop, layer_totals, self_times, tail


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(tail(range(1, 101)), (90.0, 90, 10))
        self.assertEqual(tail(range(1, 1001)), (99.0, 990, 10))
        p, v, beyond = tail([2.0] * 20 + [1.0] * 30)
        self.assertEqual((v, beyond), (2.0, 0))  # ties: nothing lies strictly above

    def test_order_does_not_matter(self):
        self.assertEqual(tail(list(range(300, 0, -1))), tail(range(1, 301)))

    def test_never_below_the_median(self):
        self.assertEqual(tail(range(1, 21)), (50.0, 10, 10))
        self.assertEqual(tail(range(1, 6)), (60.0, 3, 2))
        self.assertEqual(tail([7.0]), (100.0, 7.0, 0))

    def test_empty(self):
        with self.assertRaises(ValueError):
            tail([])


class SelfTimeTest(unittest.TestCase):
    def test_children_overlapping_and_clipped(self):
        spans = [Span(0, "cli.process", 0.0, 10.0),
                 Span(1, "bases.kl_constant", 1.0, 3.0, parent=0),
                 Span(2, "bases.base_root", 2.0, 5.0, parent=0),
                 Span(3, "cli.run", 8.0, 12.0, parent=0)]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[3], 4.0)

    def test_grandchildren_count_only_for_their_parent(self):
        spans = [Span(0, "cli.process", 0.0, 10.0),
                 Span(1, "cli.run", 2.0, 8.0, parent=0),
                 Span(2, "bases.classify", 3.0, 4.0, parent=1)]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 5.0)

    def test_layer_totals(self):
        spans = [Span(0, "cli.process", 0.0, 10.0, op=1, error=True),
                 Span(1, "cli.import", 0.5, 1.5, parent=0, op=1),
                 Span(2, "bases.kl_constant", 1.5, 4.5, parent=0, op=1),
                 Span(3, "cli.run", 4.5, 5.0, parent=0, op=1),
                 Span(4, "geometry.build_gasket", 20.0, 22.0, work={"points": 6})]
        t = layer_totals(spans)
        self.assertEqual((t["cli"]["calls"], t["cli"]["errors"]), (1, 1))
        self.assertAlmostEqual(t["cli"]["busy_s"], 10.0)
        self.assertAlmostEqual(t["cli"]["self_s"], 7.0)
        self.assertAlmostEqual(t["cli"]["by_name"]["cli.import"], 1.0)
        self.assertEqual(t["bases"]["calls"], 1)
        self.assertAlmostEqual(t["bases"]["busy_s"], 3.0)
        self.assertEqual(t["geometry"]["work"], {"points": 6})
        self.assertEqual(t["words"]["calls"], 0)


class FailureAccountingTest(unittest.TestCase):
    def run_ops(self, ops):
        tally = Tally()
        for label, call, check, expected in ops:
            tally.add(label, attempt(call, check, expected))
        return tally

    def test_outcomes(self):
        def boom():
            raise KeyError("x")

        def domain():
            raise ArithmeticError("outside (2, 3)")

        ok = lambda _: None
        tally = self.run_ops([
            ("right", lambda: 3, lambda r: None if r == 3 else "wrong", ()),
            ("listed error", domain, lambda e: None if isinstance(e, ArithmeticError) else "x",
             (ArithmeticError,)),
            ("unlisted error", boom, ok, (ArithmeticError,)),
            ("wrong result", lambda: 4, lambda r: None if r == 3 else "got 4", ()),
            ("wrong exit code", lambda: 2, lambda code: None if code == 1 else f"exit {code}", ()),
            ("broken output", lambda: "{", lambda text: {}[text], ()),
        ])
        self.assertEqual(tally.attempted, 6)
        self.assertEqual(len(tally.latencies), 2)
        self.assertEqual([f.split(":")[0] for f in tally.failures],
                         ["unlisted error", "wrong result", "wrong exit code", "broken output"])
        self.assertAlmostEqual(tally.fail_ratio, 4 / 6)
        self.assertIn("KeyError", tally.failures[0])

    def test_closed_loop_runs_whole_cycles(self):
        def cycles():
            n = 0
            while True:
                yield range(n, n + 4)
                n += 4

        def run(op, op_id):
            self.assertEqual(op_id, op + 1)
            return f"op {op}", attempt(lambda: op, lambda r: None if r % 3 else "multiple of 3")

        tally = closed_loop(cycles(), run, seconds=0.0)
        self.assertEqual((tally.attempted, len(tally.cycles)), (4, 1))
        self.assertEqual(tally.failures, ["op 0: multiple of 3", "op 3: multiple of 3"])
        tally = closed_loop(cycles(), run, seconds=0.0, max_ops=6)
        self.assertEqual((tally.attempted, len(tally.cycles)), (6, 1))

    def test_closed_loop_stops_at_the_nearest_cycle_boundary(self):
        def cycles():
            while True:
                yield range(4)

        now = [0.0]

        def run(op, op_id):  # every operation takes one second: a cycle takes four
            now[0] += 1.0
            return "op", Outcome(now[0] - 1.0, now[0])

        for seconds, whole in ((9.9, 2), (11.0, 3), (1.0, 1), (21.0, 5)):
            tally = closed_loop(cycles(), run, seconds, clock=lambda: now[0])
            self.assertEqual(len(tally.cycles), whole, seconds)
            self.assertEqual(tally.busy_s, 4.0 * whole)

    def test_listed_error_is_marked_raised(self):
        def domain():
            raise ArithmeticError("no")
        out = attempt(domain, lambda e: None, (ArithmeticError,))
        self.assertTrue(out.raised)
        self.assertIsNone(out.problem)
        self.assertGreaterEqual(out.seconds, 0.0)


if __name__ == "__main__":
    unittest.main()
