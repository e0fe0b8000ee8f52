"""Self-tests for the benchmark harness: python3 perfbench/selftest.py

Named so that pytest does not collect it: it tests the harness, not securesum.
"""
from __future__ import annotations

import csv
import io
import math
import time
import unittest
from concurrent.futures import ThreadPoolExecutor

import run
from check import check_job, parse_rows
from tracing import Tracer, merged_length
from workloads import WORKLOADS, Job

CLI_MAIN = run.import_cli()


def cli_output(job: Job) -> str:
    seconds, status, text = run.run_job(CLI_MAIN, job.argv())
    assert status == 0, status
    return text


def edit_csv(text: str, **changes) -> str:
    """Rewrite the first data row's named columns; keeps the comment line."""
    comment = [line for line in text.splitlines() if line.startswith("#")]
    rows = parse_rows(text)
    rows[0].update({k: str(v) for k, v in changes.items()})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return "\n".join(comment) + "\n" + buf.getvalue()


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for samples in (20, 36, 54, 100, 126, 1000):
            q = run.tail_percentile(samples)
            values = list(range(samples))
            beyond = sum(v > run.percentile(values, q) for v in values)
            self.assertEqual(beyond, 10, samples)
            # one percentile higher leaves fewer than ten beyond
            self.assertLess(sum(v > run.percentile(values, q + 1) for v in values), 10)

    def test_more_passes_keep_at_least_ten_beyond(self):
        q = run.tail_percentile(27 * run.MIN_PASSES)
        values = list(range(27 * 3))
        self.assertGreaterEqual(sum(v > run.percentile(values, q) for v in values), 10)

    def test_exact_percentile(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.percentile(range(1, 101), 90), 90)


class SelfTime(unittest.TestCase):
    def test_merged_length(self):
        self.assertAlmostEqual(merged_length([(0, 2), (1, 3), (5, 6)], 0, 10), 4.0)
        self.assertAlmostEqual(merged_length([(-1, 2), (8, 12)], 0, 10), 4.0)
        self.assertEqual(merged_length([], 0, 10), 0.0)

    def test_overlapping_thread_children_count_once(self):
        tracer = Tracer()
        leaf = tracer._wrap(lambda: time.sleep(0.2), "gf2.rank", None)

        def sweep():
            with ThreadPoolExecutor(max_workers=2) as ex:
                list(ex.map(lambda _: leaf(), range(2)))

        tracer.job(tracer._wrap(sweep, "cli.sweep", None))
        wall = tracer.total_s["cli.sweep"]
        self.assertEqual(tracer.calls["gf2.rank"], 2)
        # Summing the two children would give wall - 0.4 < 0; the union gives ~0.
        self.assertGreaterEqual(tracer.self_s["cli.sweep"], 0.0)
        self.assertLess(tracer.self_s["cli.sweep"], 0.1)
        self.assertAlmostEqual(tracer.counters["cli.sweep.child_s"] / wall, 2.0, delta=0.4)
        self.assertGreater(tracer.self_s["cli.main"], -1e-9)
        self.assertLess(tracer.self_s["cli.main"], 0.05)

    def test_same_thread_children(self):
        tracer = Tracer()
        leaf = tracer._wrap(lambda: time.sleep(0.05), "gf2.matvec", None)

        def outer():
            leaf()
            leaf()
            time.sleep(0.05)

        tracer.job(tracer._wrap(outer, "protocol.run", None))
        self.assertAlmostEqual(tracer.self_s["protocol.run"], 0.05, delta=0.03)
        self.assertAlmostEqual(tracer.self_s["gf2.matvec"], 0.1, delta=0.03)

    def test_absent_name_is_listed(self):
        import tracing

        saved = tracing.WRAPS
        tracing.WRAPS = saved + (("securesum.cli", "no_such_function", "cli.gone", None),)
        tracer = Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            tracing.WRAPS = saved
        self.assertEqual(tracer.absent, ["securesum.cli.no_such_function"])


class Checker(unittest.TestCase):
    def test_secure_km_leak_rejected(self):
        job = Job("leakage", ("secure-km",), (4,), ms=(3,), ps=(0.25,), seed=5)
        text = cli_output(job)
        self.assertEqual(check_job(job, text), [])
        self.assertTrue(check_job(job, edit_csv(text, eps1=1e-3)))

    def test_flipped_region_verdict_rejected(self):
        job = Job("region", quad=(0.5, 0.5, 0.5, 0.5), ps=(0.1,))
        text = cli_output(job)
        self.assertEqual(check_job(job, text), [])
        self.assertIn("verdict=in-region", text)
        self.assertTrue(check_job(job, text.replace("verdict=in-region", "verdict=out-of-region")))
        row_job = Job("simulate", ("secure-km",), (6,), ms=(3,), ps=(0.1,), seed=2, mode="exact")
        row_text = cli_output(row_job)
        flipped = "false" if parse_rows(row_text)[0]["in_region"] == "true" else "true"
        self.assertTrue(check_job(row_job, edit_csv(row_text, in_region=flipped)))

    def test_mc_ten_sigma_off_rejected(self):
        job = Job("simulate", ("secure-km",), (8,), rate=0.75, ps=(0.1,), seed=3,
                  mode="both", trials=4000)
        text = cli_output(job)
        self.assertEqual(check_job(job, text), [])
        exact = float(parse_rows(text)[0]["p_err_exact"])
        sigma = math.sqrt(exact * (1 - exact) / job.trials)
        self.assertTrue(check_job(job, edit_csv(text, p_err_mc=repr(exact + 10 * sigma))))

    def test_header_bump_and_new_column_still_parse(self):
        job = Job("leakage", ("plain-km",), (4,), ms=(2,), ps=(0.2,), seed=1)
        text = cli_output(job).replace("# securesum-csv v1", "# securesum-csv v2")
        self.assertEqual(check_job(job, edit_csv(text, extra_column="x")), [])

    def test_missing_or_extra_row_rejected(self):
        job = Job("sweep", ("plain-km",), (4, 5), ms=(2,), ps=(0.2,), seed=1, mode="exact")
        text = cli_output(job)
        self.assertEqual(check_job(job, text), [])
        self.assertTrue(check_job(job, text.rstrip("\n").rsplit("\n", 1)[0] + "\n"))


class Workloads(unittest.TestCase):
    def test_seed_fixes_the_inputs(self):
        for build in WORKLOADS.values():
            first = [job.argv() for job in build(7)]
            self.assertEqual(first, [job.argv() for job in build(7)])
            self.assertNotEqual(first, [job.argv() for job in build(8)])
            self.assertGreaterEqual(len(first) * run.MIN_PASSES, 2 * run.TAIL_BEYOND)

    def test_jobs_stay_inside_the_guards(self):
        for name, build in WORKLOADS.items():
            for job in build(1):
                for proto, n, m, p in job.expected_points():
                    key = {"secure-km": m, "plain-km": 0, "zero-error-otp": n}[proto]
                    if job.mode == "leakage" or job.command == "leakage":
                        self.assertLessEqual(2 * n + key, 22, (name, job))
                    if proto != "zero-error-otp":
                        self.assertLessEqual(m, 16, (name, job))


if __name__ == "__main__":
    unittest.main()
