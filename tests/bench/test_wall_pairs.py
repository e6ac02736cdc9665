"""benchmarks/wall_pairs.py: the claim rule over alternating pairs."""

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
