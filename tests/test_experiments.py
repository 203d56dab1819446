"""Integration tests: every experiment runs at small scale and reproduces
the paper's qualitative findings (shape, ordering, crossovers)."""

import math

import pytest

from repro.experiments import SMALL_SCALE
from repro.experiments import (
    fig04_replication,
    fig05_result_cdf,
    fig06_union_cdf,
    fig07_latency,
    fig08_flood_overhead,
    fig09_pf_threshold,
    fig10_publish_overhead,
    fig11_qr,
    fig12_qdr,
    fig13_schemes_qr,
    fig14_schemes_qdr,
    fig15_sam_sweep,
    sec4_summary,
)


class TestFig04:
    def test_small_results_are_rare_items(self):
        result = fig04_replication.run(SMALL_SCALE)
        factors = result.column("avg_replication_factor")
        # Smallest bucket far less replicated than the most replicated bucket.
        assert factors[0] * 3 < max(factors)


class TestFig05:
    def test_union_dominates_single(self):
        result = fig05_result_cdf.run(SMALL_SCALE)
        single = result.column(result.columns[1])
        union = result.column(result.columns[2])
        for s, u in zip(single, union):
            assert u <= s + 1e-9  # union CDF sits below (fewer small results)

    def test_cdf_monotone(self):
        result = fig05_result_cdf.run(SMALL_SCALE)
        single = result.column(result.columns[1])
        assert single == sorted(single)


class TestFig06:
    def test_unions_improve_with_k(self):
        result = fig06_union_cdf.run(SMALL_SCALE)
        # at every size row, fraction <= size decreases as k grows
        for row in result.rows:
            ks = list(row[2:])
            assert all(a >= b - 1e-9 for a, b in zip(ks, ks[1:]))

    def test_zero_row_matches_paper_direction(self):
        result = fig06_union_cdf.run(SMALL_SCALE)
        zero_row = result.rows[0]
        single_zero, union_max_zero = zero_row[1], zero_row[-1]
        assert union_max_zero < single_zero


class TestFig07:
    def test_latency_decreases_with_result_size(self):
        result = fig07_latency.run(SMALL_SCALE)
        latencies = result.column("avg_first_result_latency_s")
        assert latencies[0] > latencies[-1] * 3

    def test_rare_queries_tens_of_seconds(self):
        result = fig07_latency.run(SMALL_SCALE)
        label_to_latency = {
            row[0]: row[2] for row in result.rows
        }
        if "1" in label_to_latency:
            assert label_to_latency["1"] > 20.0


class TestFig07Cdf:
    """The event-driven variant: latencies are virtual-time race results."""

    def test_cdf_monotone_and_positive(self):
        result = fig07_latency.run_cdf(SMALL_SCALE)
        hybrid = result.column("hybrid_s")
        assert hybrid == sorted(hybrid)
        assert all(value > 0 for value in hybrid)

    def test_hybrid_tail_no_worse_than_flooding_alone(self):
        result = fig07_latency.run_cdf(SMALL_SCALE)
        # The DHT answers rare queries shortly after the timeout, capping
        # the tail that pure flooding stretches into deep rounds.
        tail = result.rows[-1]
        assert tail[1] <= tail[2] + 1e-9

    def test_fast_percentiles_match_flooding(self):
        result = fig07_latency.run_cdf(SMALL_SCALE)
        # Popular queries never wait for the DHT: at the fast end the
        # hybrid's latency is exactly Gnutella's.
        head = result.rows[0]
        assert head[1] == pytest.approx(head[2])


class TestFig12Cdf:
    def test_winner_split_shapes(self):
        result = fig12_qdr.run_cdf(SMALL_SCALE)
        flood = result.column("flood_won_s")
        dht = result.column("dht_won_s")
        # Flooding wins are fast; DHT wins land only after the timeout.
        assert flood[0] < 30.0
        finite_dht = [value for value in dht if not math.isnan(value)]
        if finite_dht:
            assert min(finite_dht) > 30.0


class TestFig08:
    def test_diminishing_returns(self):
        result = fig08_flood_overhead.run(SMALL_SCALE, num_ultrapeers=2000, num_origins=3)
        marginals = [row[3] for row in result.rows if math.isfinite(row[3])]
        assert marginals[-1] > marginals[1]

    def test_messages_exceed_visits_at_depth(self):
        result = fig08_flood_overhead.run(SMALL_SCALE, num_ultrapeers=2000, num_origins=3)
        last = result.rows[-1]
        assert last[1] > last[2]  # messages > ultrapeers visited


class TestFig09:
    def test_starts_at_horizon_and_rises(self):
        result = fig09_pf_threshold.run(SMALL_SCALE)
        first = result.rows[0]
        assert first[1] == pytest.approx(0.05, abs=0.01)
        assert first[2] == pytest.approx(0.15, abs=0.01)
        assert first[3] == pytest.approx(0.30, abs=0.01)
        for column in (1, 2, 3):
            values = [row[column] for row in result.rows]
            assert values == sorted(values)

    def test_wider_horizon_higher_curve(self):
        result = fig09_pf_threshold.run(SMALL_SCALE)
        for row in result.rows:
            assert row[1] <= row[2] <= row[3]


class TestFig10:
    def test_paper_singleton_fraction(self):
        result = fig10_publish_overhead.run(SMALL_SCALE)
        at_one = result.rows[1][1]
        assert 15.0 < at_one < 32.0  # paper: 23%

    def test_monotone_with_diminishing_growth(self):
        result = fig10_publish_overhead.run(SMALL_SCALE)
        values = result.column("pct_items_published")
        assert values == sorted(values)
        assert values[0] == 0.0


class TestFig11And12:
    def test_qr_jumps_at_threshold_one(self):
        result = fig11_qr.run(SMALL_SCALE)
        base = result.rows[0]
        one = result.rows[1]
        for column in (1, 2, 3):
            assert one[column] > base[column] + 10.0

    def test_qdr_higher_than_qr(self):
        qr = fig11_qr.run(SMALL_SCALE)
        qdr = fig12_qdr.run(SMALL_SCALE)
        for qr_row, qdr_row in zip(qr.rows[1:], qdr.rows[1:]):
            for column in (1, 2, 3):
                assert qdr_row[column] >= qr_row[column] - 1e-6

    def test_qdr_rises_toward_high_values(self):
        qdr = fig12_qdr.run(SMALL_SCALE)
        # paper: ~93% at threshold 2, horizon 15%
        assert qdr.rows[2][2] > 75.0


class TestSchemeComparisons:
    def test_informed_schemes_beat_random_at_low_budget(self):
        result = fig13_schemes_qr.run(SMALL_SCALE)
        by_budget = {row[0]: row for row in result.rows}
        row = by_budget[20.0]
        perfect, sam, tpf, tf, rand = row[1:6]
        assert perfect > rand
        assert tpf > rand

    def test_qdr_variant_runs(self):
        result = fig14_schemes_qdr.run(SMALL_SCALE)
        assert result.experiment_id == "fig14"
        assert len(result.rows) == 11

    def test_sam_extremes_match_legend(self):
        """SAM(100%) = Perfect scores; SAM(0%) cannot rank (Random-like)."""
        result = fig15_sam_sweep.run(SMALL_SCALE)
        fig13 = fig13_schemes_qr.run(SMALL_SCALE)
        # SAM(100%) column equals Perfect column (same scores, same tiebreak rng).
        sam100 = result.column("SAM(100%)")
        perfect = fig13.column("Perfect")
        for a, b in zip(sam100, perfect):
            assert a == pytest.approx(b, abs=2.0)

    def test_all_schemes_hit_full_recall_at_full_budget(self):
        result = fig13_schemes_qr.run(SMALL_SCALE)
        assert all(value == pytest.approx(100.0) for value in result.rows[-1][1:])


class TestSec4Summary:
    def test_measured_magnitudes(self):
        result = sec4_summary.run(SMALL_SCALE)
        rows = {row[0]: row for row in result.rows}
        single_zero = rows["pct queries 0 results (single)"]
        union_zero = [
            row
            for name, row in rows.items()
            if name.startswith("pct queries 0 results (union")
        ][0]
        assert union_zero[2] < single_zero[2]  # unions recover results
        lat_one = rows["first-result latency, 1 result (s)"][2]
        lat_big = rows["first-result latency, >150 results (s)"][2]
        assert lat_one > 3 * lat_big


class TestExperimentResultFormatting:
    def test_format_table_renders(self):
        result = fig09_pf_threshold.run(SMALL_SCALE)
        text = result.format_table()
        assert "fig09" in text
        assert "replica_threshold" in text

    def test_column_accessor_rejects_unknown(self):
        result = fig09_pf_threshold.run(SMALL_SCALE)
        with pytest.raises(ValueError):
            result.column("nope")


class TestExtCacheEffectiveness:
    def test_cache_saves_bandwidth_without_recall_loss(self):
        from repro.experiments import ext_cache_effectiveness

        result = ext_cache_effectiveness.run(SMALL_SCALE)
        columns = result.columns
        cells = {(row[0], row[1]): row for row in result.rows}

        def cell(alpha, budget, name):
            return cells[(alpha, budget)][columns.index(name)]

        alphas = sorted({row[0] for row in result.rows})
        budgets = sorted({row[1] for row in result.rows})
        # cached cells save bandwidth; savings grow with the budget
        for alpha in alphas:
            saved = [cell(alpha, budget, "bandwidth_saved_pct") for budget in budgets]
            assert saved[0] == 0.0  # budget-0 baseline
            assert all(a <= b + 1e-9 for a, b in zip(saved, saved[1:]))
            assert saved[-1] > 10.0
        # heavier skew -> more repetition -> higher hit rate
        assert cell(alphas[-1], budgets[-1], "hit_rate_pct") >= cell(
            alphas[0], budgets[-1], "hit_rate_pct"
        )
        # zero recall loss everywhere
        assert all(row[columns.index("recall_delta")] == 0.0 for row in result.rows)


class TestFig07CdfPipelining:
    """Acceptance: DHT wins resolve mid-join, strictly before completion."""

    def test_multi_keyword_dht_wins_answer_before_join_completes(self):
        report = fig07_latency.get_event_report(SMALL_SCALE)
        wins = [
            outcome
            for outcome in report.outcomes
            if outcome.used_pier
            and outcome.pier_results > 0
            and not outcome.cache_hit
            and len(outcome.terms) > 1
        ]
        assert wins, "the event deployment must answer multi-keyword queries via PIER"
        for outcome in wins:
            assert outcome.pier_latency <= outcome.pier_completion_latency + 1e-9
        from statistics import mean

        first = mean(outcome.pier_latency for outcome in wins)
        complete = mean(outcome.pier_completion_latency for outcome in wins)
        assert first < complete  # pipelining measurably visible
        assert any(
            outcome.pier_latency < outcome.pier_completion_latency
            for outcome in wins
        )

    def test_cdf_carries_pier_columns(self):
        result = fig07_latency.run_cdf(SMALL_SCALE)
        assert "pier_first_s" in result.columns
        assert "pier_complete_s" in result.columns
        firsts = result.column("pier_first_s")
        completes = result.column("pier_complete_s")
        for f, c in zip(firsts, completes):
            if not (math.isnan(f) or math.isnan(c)):
                assert f <= c + 1e-9


class TestExtJoin:
    def test_reports_counts_not_host_time(self):
        """The sweep's rows are spill counts, answer checks and strategy
        picks: no column holds a rate or a timing ratio."""
        from repro.experiments import ext_join

        result = ext_join.run(SMALL_SCALE, alphas=(1.1,))
        assert {row[0] for row in result.rows} == {"spill", "equivalence", "optimizer"}
        assert not any("qps" in column or "ratio" in column for column in result.columns)
        spill = [row for row in result.rows if row[0] == "spill"]
        assert [row[3] for row in spill] == [0, 512, 128, 64, ext_join.TIGHT_BUDGET]
        assert all(type(value) is int for row in spill for value in row[3:])
