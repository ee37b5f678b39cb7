"""``compare.py`` on synthetic ok / worse / unresolved pairs."""

import copy
import json

import compare
import spec as tables

FINGERPRINT = {"cpu_count": 2, "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas"}


def result(**overrides):
    end_to_end = {
        "setup_s": 2.0, "rounds_per_s": 1.0, "round_s_p50": 1.0, "round_s_late_over_early": 1.0,
        "peak_rss_mb": 300.0, "wire_bytes_per_round": 1000.0, "final_accuracy": 0.9,
        "rounds_to_target": 8,
    }
    end_to_end.update(overrides)
    return {
        "seed": 0,
        "fingerprint": dict(FINGERPRINT),
        "workloads": {
            "fig2_cnn": {
                "end_to_end": end_to_end,
                "exact": {"wire_bytes_per_round": end_to_end["wire_bytes_per_round"],
                          "rounds_to_target": end_to_end["rounds_to_target"],
                          "runner.client_steps": 8},
                "digest": "abc",
            }
        },
    }


def verdicts(parent, change):
    lines, breaches = compare.compare(parent, change)
    table = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "fig2_cnn":
            table[parts[1]] = parts[-1]
    return table, breaches


def test_identical_results_are_ok_and_equal():
    table, breaches = verdicts(result(), result())
    assert breaches == 0
    assert {table[m.name] for m in tables.END_TO_END} == {"ok"}
    assert table["exact:digest"] == "equal" and table["exact:runner.client_steps"] == "equal"


def test_regression_beyond_the_bound_is_worse_in_the_metric_direction():
    bound = {m.name: m for m in tables.END_TO_END}
    slower = 1.0 + bound["round_s_p50"].bound + 0.01
    table, breaches = verdicts(result(), result(round_s_p50=slower))
    assert table["round_s_p50"] == "worse" and breaches == 1
    # An improvement of the same size is fine, and "higher is better" flips the sign.
    assert verdicts(result(), result(round_s_p50=2.0 - slower))[0]["round_s_p50"] == "ok"
    fewer = 1.0 - bound["rounds_per_s"].bound - 0.01
    assert verdicts(result(), result(rounds_per_s=fewer))[0]["rounds_per_s"] == "worse"
    assert verdicts(result(), result(rounds_per_s=2.0))[0]["rounds_per_s"] == "ok"


def test_absolute_floor_absorbs_small_changes():
    # +2 MB on 300 MB is inside the 3 MB floor although a 0.5% bound would not allow it.
    assert verdicts(result(), result(peak_rss_mb=302.0))[0]["peak_rss_mb"] == "ok"
    assert verdicts(result(), result(peak_rss_mb=330.0))[0]["peak_rss_mb"] == "worse"
    # final_accuracy: -0.02 absolute.
    assert verdicts(result(), result(final_accuracy=0.885))[0]["final_accuracy"] == "ok"
    assert verdicts(result(), result(final_accuracy=0.85))[0]["final_accuracy"] == "worse"


def test_spread_wider_than_the_allowance_is_unresolved():
    noisy = {"median": 1.0, "q1": 0.8, "q3": 1.3, "values": [0.8, 1.0, 1.3]}
    table, breaches = verdicts(result(round_s_p50=noisy), result(round_s_p50=1.0))
    assert table["round_s_p50"] == "unresolved" and breaches == 1
    tight = {"median": 1.0, "q1": 0.99, "q3": 1.01, "values": [0.99, 1.0, 1.01]}
    assert verdicts(result(round_s_p50=tight), result(round_s_p50=tight))[0]["round_s_p50"] == "ok"


def test_exact_counts_and_digests_must_match_on_one_host():
    change = result()
    change["workloads"]["fig2_cnn"]["exact"]["runner.client_steps"] = 9
    change["workloads"]["fig2_cnn"]["digest"] = "xyz"
    table, breaches = verdicts(result(), change)
    assert table["exact:runner.client_steps"] == "DIFFERS" and table["exact:digest"] == "DIFFERS"
    assert breaches == 2
    # On another host the mismatch is shown but not enforced.
    other = copy.deepcopy(change)
    other["fingerprint"]["numpy"] = "1.26.0"
    assert verdicts(result(), other)[1] == 0


def test_main_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result()))
    b.write_text(json.dumps(result(round_s_p50=5.0)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(a)]) == 2
