"""ASCII chart rendering."""

from repro.analysis.charts import grouped_bar_chart, stacked_shares


class TestGrouped:
    def test_structure(self):
        text = grouped_bar_chart(
            [("G1", [("s1", 1.0), ("s2", 10.0)]), ("G2", [("s1", 5.0)])],
            title="grouped",
        )
        assert "grouped" in text
        assert "G1:" in text and "G2:" in text
        assert text.count("|") == 3

    def test_log_compression(self):
        text = grouped_bar_chart(
            [("g", [("big", 1000.0), ("small", 10.0)])], width=30
        )
        lines = text.splitlines()[1:]
        big = lines[0].count("#")
        small = lines[1].count("#")
        # Log scale: 10 vs 1000 is 1/3 of the range above 1, not 1/100.
        assert small > big / 10
        assert big > small

    def test_nonpositive_filtered(self):
        text = grouped_bar_chart([("g", [("zero", 0.0)])], title="t")
        assert text == "t\ng:"

    def test_labels_aligned(self):
        text = grouped_bar_chart([("g", [("aa", 2.0), ("b", 3.0)])])
        lines = text.splitlines()[1:]
        assert lines[0].index("|") == lines[1].index("|")

    def test_longest_bar_fills_width(self):
        text = grouped_bar_chart([("g", [("a", 100.0), ("b", 10.0)])], width=20)
        lines = text.splitlines()[1:]
        assert lines[0].count("#") == 20
        # The axis starts at 1: a tenth of the value is half the bar.
        assert lines[1].count("#") == 10

    def test_smallest_bar_never_empty(self):
        text = grouped_bar_chart([("g", [("half", 0.5), ("one", 1.0)])], width=10)
        lines = text.splitlines()[1:]
        assert lines[0].count("#") == 1
        assert lines[1].count("#") == 10
        assert grouped_bar_chart([("g", [("one", 1.0)])]).endswith("|# 1")

    def test_values_printed_to_three_digits(self):
        text = grouped_bar_chart([("g", [("x", 1234.5), ("y", 12.345)])])
        assert text.splitlines()[1].endswith(" 1.23e+03")
        assert text.splitlines()[2].endswith(" 12.3")

    def test_clusters_scale_independently(self):
        text = grouped_bar_chart(
            [("G1", [("a", 10.0)]), ("G2", [("b", 1000.0)])], width=12
        )
        bars = [line for line in text.splitlines() if "|" in line]
        assert [bar.count("#") for bar in bars] == [12, 12]

    def test_no_groups(self):
        assert grouped_bar_chart([], title="t") == "t"
        assert grouped_bar_chart([]) == ""


class TestStacked:
    def test_bar_width(self):
        rows = [("w", {"A": 0.5, "B": 0.5})]
        text = stacked_shares(rows, width=40, legend=[("A", "A"), ("B", "B")])
        bar_line = text.splitlines()[-1]
        inner = bar_line.split("|")[1]
        assert len(inner) == 40
        assert inner.count("A") == 20
        assert inner.count("B") == 20

    def test_legend_rendered(self):
        text = stacked_shares(
            [("x", {"A": 1.0})], legend=[("A", "a")], title="t"
        )
        assert "legend: a=A" in text

    def test_overflow_truncated_to_width(self):
        text = stacked_shares([("w", {"A": 0.8, "B": 0.8})], width=10)
        assert text == "w |AAAAAAAABB|"

    def test_unlisted_component_drawn_with_its_initial(self):
        text = stacked_shares([("w", {"Crossbar": 1.0})], width=10)
        assert "legend" not in text
        assert text == "w |CCCCCCCCCC|"

    def test_zero_share_draws_nothing(self):
        text = stacked_shares([("w", {"A": 0.0, "B": 1.0})], width=10)
        assert text.split("|")[1] == "B" * 10

    def test_labels_aligned(self):
        text = stacked_shares(
            [("long", {"A": 1.0}), ("s", {"A": 0.5})], width=10
        )
        lines = text.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_no_rows(self):
        assert stacked_shares([], title="t") == "t"
