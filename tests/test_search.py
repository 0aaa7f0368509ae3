"""Randomized hunt for minimal definitive sets.

The search reports a stripped set on its strip's removal checks alone, so
these tests decide the findings again, by the oracle where it runs."""

import hashlib
from functools import lru_cache

import pytest

from quartets import (
    QuartetError,
    defines,
    minimality_report,
    run_search,
)
from quartets import decide, search


class TestRunSearch:
    def test_five_leaves_finds_a_pair(self):
        findings = run_search(5, target_size=2, budget=1000, seed=1)
        assert findings
        assert all(f.size == 2 for f in findings)

    def test_findings_revalidate(self):
        for f in run_search(5, target_size=2, budget=400, seed=3):
            v = defines(f.quartets, mode="oracle")
            assert v.is_definitive
            report = minimality_report(f.quartets)
            assert report.minimal is True
            assert len(f.quartets.support_labels()) == f.n
            assert f.size == len(f.quartets) >= f.n - 3

    @pytest.mark.parametrize("n, target, budget", [(8, 6, 30), (9, 7, 4)])
    def test_findings_are_minimal_by_the_oracle(self, n, target, budget, monkeypatch):
        # the oracle decides each finding and each finding minus one quartet,
        # some of them stripped from a set that a report found not minimal,
        # which the search reports on its strip's removal checks alone
        stripped = []

        def recording(qs, *args, **kwargs):
            report = minimality_report(qs, *args, **kwargs)
            if report.minimal is False:
                stripped.append(qs.quartets)
            return report

        monkeypatch.setattr(search, "minimality_report", recording)
        findings = run_search(n, target_size=target, budget=budget, seed=3)
        assert any(f.quartets.quartets < s for f in findings for s in stripped)
        for f in findings:
            report = minimality_report(f.quartets, mode="oracle")
            assert report.verdict.is_definitive and report.minimal is True
            for q in f.quartets:
                rest = defines(f.quartets.without_quartet(q), f.quartets.leaves,
                               mode="oracle", allow_larger_ambient=True)
                assert rest.tree != report.verdict.tree

    def test_output_is_pinned(self):
        # sha256 of the findings: deciding each set once, through its
        # minimality report, finds exactly what deciding it twice found
        findings = run_search(8, target_size=6, budget=60, seed=7)
        text = "\n".join(
            f"{f.size} {f.trials_used} {' '.join(f.quartets.texts())}" for f in findings
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f5f6b9828cae78f825aeb6202a997a0fe9017b1ea4200353f0593bcc36db03be"
        )

    def test_each_set_is_decided_once(self, monkeypatch, no_index):
        # the strip asks the removal check, not defines, and a stripped set
        # is not decided again; re-validating each stripped set that can
        # still be reported costs 259 reports and 259 certificates, and
        # re-validating every stripped set or re-deciding each drop with
        # defines 283 reports and 394 certificates. The index route is off,
        # so that each report goes through the certificate
        calls = {"report": 0, "certificate": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(search, "minimality_report", counted("report", minimality_report))
        monkeypatch.setattr(
            decide, "_closure_certificate", counted("certificate", decide._closure_certificate)
        )
        run_search(8, target_size=6, budget=50, seed=1)
        assert calls == {"report": 235, "certificate": 235}

    def test_eight_leaves_read_only_the_index(self, monkeypatch):
        # with the index route on, no 8-leaf set reaches the certificate or
        # the walk, the index is built once, and the findings are those of
        # the route it replaces
        with monkeypatch.context() as patch:
            patch.setattr(decide, "_INDEX_LEAVES", 3)
            routed_off = run_search(8, target_size=6, budget=50, seed=1)
        def refuse(*args):
            raise AssertionError("an 8-leaf set left the index route")

        monkeypatch.setattr(decide, "_closure_certificate", refuse)
        monkeypatch.setattr(decide, "_binary_walk", refuse)
        fresh = lru_cache(maxsize=None)(decide._Index)
        monkeypatch.setattr(decide, "_index", fresh)
        assert run_search(8, target_size=6, budget=50, seed=1) == routed_off
        info = fresh.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_deterministic_for_a_seed(self):
        a = run_search(6, target_size=4, budget=300, seed=11)
        b = run_search(6, target_size=4, budget=300, seed=11)
        assert [f.quartets for f in a] == [f.quartets for f in b]
        assert [f.trials_used for f in a] == [f.trials_used for f in b]

    def test_different_seeds_differ_somewhere(self):
        a = run_search(5, target_size=2, budget=200, seed=1)
        b = run_search(5, target_size=2, budget=200, seed=2)
        assert a != b  # trial counts or sets will differ

    def test_six_leaves_rediscovers_size_four(self):
        findings = run_search(6, target_size=4, budget=1000, seed=1)
        assert any(f.size == 4 for f in findings)

    def test_findings_are_distinct(self):
        findings = run_search(5, target_size=2, budget=1000, seed=5)
        sets = [f.quartets for f in findings]
        assert len(sets) == len(set(sets))

    def test_too_few_leaves(self):
        with pytest.raises(QuartetError):
            run_search(3, target_size=2, budget=10, seed=0)

    def test_bad_target(self):
        with pytest.raises(QuartetError):
            run_search(5, target_size=0, budget=10, seed=0)

    def test_bad_budget(self):
        with pytest.raises(QuartetError):
            run_search(5, target_size=2, budget=0, seed=0)
