"""benchmarks/wall_pairs.py: the claim rule over alternating pairs."""

import json

import pytest

from benchmarks import wall_pairs


class TestSummarize:
    def test_a_clear_win_on_a_lower_is_better_metric(self):
        parent = [260.0, 250.0, 270.0, 255.0, 265.0, 258.0, 262.0, 251.0, 268.0, 259.0]
        change = [100.0, 98.0, 104.0, 99.0, 101.0, 97.0, 103.0, 100.0, 102.0, 99.5]
        s = wall_pairs.summarize(parent, change, "lower")
        assert s["wins"] == 10 and s["pairs"] == 10
        assert s["beyond_spread"] and s["claimable"]
        assert s["parent"][1] == 259.5
        assert round(s["delta"], 3) == round((100.0 - 259.5) / 259.5, 3)

    def test_eight_of_ten_is_not_enough(self):
        parent = [10.0] * 10
        change = [5.0] * 8 + [11.0] * 2
        s = wall_pairs.summarize(parent, change, "lower")
        assert s["wins"] == 8
        assert s["beyond_spread"] and not s["claimable"]

    def test_a_win_inside_the_parents_own_spread_is_not_claimable(self):
        parent = [100.0, 140.0, 100.0, 140.0, 100.0, 140.0, 100.0, 140.0, 100.0, 140.0]
        change = [v - 1.0 for v in parent]
        s = wall_pairs.summarize(parent, change, "lower")
        assert s["wins"] == 10
        assert not s["beyond_spread"] and not s["claimable"]

    def test_ties_count_for_neither_side_and_higher_is_better(self):
        s = wall_pairs.summarize([1.0, 1.0, 2.0], [1.0, 3.0, 1.0], "higher")
        assert (s["wins"], s["pairs"]) == (1, 3)

    def test_render_names_every_metric(self):
        s = wall_pairs.summarize([2.0, 2.0], [1.0, 1.0], "lower")
        text = wall_pairs.render("w", [("put_p50_us", "us", s)])
        assert "put_p50_us" in text and "2/2" in text and "claimable" in text


class TestSignGate:
    """``--gate``: fail only when every pair was lost and the medians are
    further apart than the parent's own spread."""

    def test_losing_every_pair_beyond_the_spread_fails(self):
        parent = [100.0, 102.0, 101.0, 99.0, 100.5, 101.5, 100.0]
        change = [v - 10.0 for v in parent]
        s = wall_pairs.summarize(parent, change, "higher")
        assert s["regressed"] and not s["beyond_spread"]
        text = wall_pairs.render("w", [("ops_per_s", "1/s", s)])
        assert "REGRESSED" in text

    def test_one_pair_won_or_tied_passes(self):
        parent = [100.0, 102.0, 101.0, 99.0, 100.5, 101.5, 100.0]
        change = [v - 10.0 for v in parent[:-1]] + [parent[-1]]
        assert not wall_pairs.summarize(parent, change, "higher")["regressed"]
        change[-1] = parent[-1] + 1.0
        assert not wall_pairs.summarize(parent, change, "higher")["regressed"]

    def test_losing_every_pair_inside_the_spread_passes(self):
        parent = [100.0, 140.0, 100.0, 140.0, 100.0, 140.0, 100.0]
        change = [v - 1.0 for v in parent]
        assert not wall_pairs.summarize(parent, change, "higher")["regressed"]

    def test_direction_follows_the_metric(self):
        parent = [50.0, 51.0, 50.5, 49.5, 50.0, 50.2, 49.8]
        slower = [v + 10.0 for v in parent]
        assert wall_pairs.summarize(parent, slower, "lower")["regressed"]
        assert not wall_pairs.summarize(parent, slower, "higher")["regressed"]

    def test_the_exit_status(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 8,
            "end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
                {"name": "put_p50_us", "unit": "us", "better": "lower"},
            ],
        }))

        def fake_run(checkout, workload, seed, seconds):
            # the change is slower on every run, by far
            ops = 1000.0 if checkout == "parent" else 800.0
            return {"correct": True, "failed": 0, "metrics": {
                "ops_per_s": {"value": ops},
                "put_p50_us": {"value": 100000.0 / ops},
            }}

        monkeypatch.setattr(wall_pairs, "run_once", fake_run)
        change = str(tmp_path)
        args = ["parent", change, "--workload", "w", "--pairs", "3"]
        assert wall_pairs.main(args) == 0
        assert wall_pairs.main(args + ["--gate", "ops_per_s"]) == 1
        assert "sign test failed" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            wall_pairs.main(args + ["--gate", "no_such_metric"])
