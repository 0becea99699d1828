import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canalis
from canalis import RejectionLimitExceeded, classify, from_hex, to_hex
from canalis.cli import main
from canalis.exact_counts import count_exact_k


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_basic(capsys):
    doc = run_json(capsys, "count", "--n", "4")
    assert doc["command"] == "count"
    assert doc["format_version"] == 1
    assert doc["result"]["count"] == "3514"


def test_count_exact_k(capsys):
    doc = run_json(capsys, "count", "--n", "3", "--k", "3")
    assert doc["result"]["count"] == "18"


def test_count_table(capsys):
    doc = run_json(capsys, "count", "--n", "3", "--table")
    rows = doc["result"]["rows"]
    assert [r["count"] for r in rows] == ["78", "24", "18"]
    assert doc["result"]["total"] == "120"


def test_count_scientific(capsys):
    doc = run_json(capsys, "count", "--n", "9", "--scientific")
    assert doc["result"]["scientific"] == "4.168515213e+78"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,count"
    assert lines[1] == "1,78"
    assert lines[-1] == "total,120"


def test_count_range_error_exit_3(capsys):
    code, _, err = run(capsys, "count", "--n", "99")
    assert code == 3
    assert "n must satisfy" in err


def test_count_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "count", "--n", "abc")
    assert code == 2
    for fmt in ("json", "csv"):
        code, out, _ = run(capsys, "count", "--n", "3", "--table", "--scientific", "--format", fmt)
        assert code == 2 and not out, fmt


def test_count_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CANALIS_MAX_N", "3")
    code, _, _ = run(capsys, "count", "--n", "4")
    assert code == 3


def test_prob_basic(capsys):
    doc = run_json(capsys, "prob", "--n", "2", "--p", "1/2")
    assert doc["result"]["value"] == "7/8"
    assert doc["result"]["both_ways"] == "1/4"
    assert doc["params"]["p"] == "1/2"


def test_prob_decimal_bias_and_digits(capsys):
    doc = run_json(capsys, "prob", "--n", "2", "--p", "0.25", "--digits", "6")
    assert doc["result"]["value"] == "119/128"
    assert doc["result"]["value_decimal"] == "0.929688"


def test_prob_exactly_k_direction(capsys):
    doc = run_json(capsys, "prob", "--n", "2", "--p", "1/2", "--k", "2", "--direction", "pos")
    assert doc["result"]["value"] == "5/16"


def test_prob_exactly_k_both_directions(capsys):
    doc = run_json(capsys, "prob", "--n", "2", "--p", "1/4", "--k", "2")
    assert doc["result"]["positive"] == "13/256"
    assert doc["result"]["negative"] == "189/256"


def test_prob_direction_without_k_is_usage_error(capsys):
    code, _, _ = run(capsys, "prob", "--n", "2", "--p", "1/2", "--direction", "pos")
    assert code == 2


def test_prob_bad_bias_exit_2(capsys):
    code, _, _ = run(capsys, "prob", "--n", "2", "--p", "7/4")
    assert code == 2
    code, _, _ = run(capsys, "prob", "--n", "2", "--p", "zebra")
    assert code == 2


def test_prob_range_exit_3(capsys):
    code, _, _ = run(capsys, "prob", "--n", "17", "--p", "1/2")
    assert code == 3


def test_classify_or(capsys):
    doc = run_json(capsys, "classify", "--n", "2", "--hex", "e")
    res = doc["result"]
    assert res["canalizing"] is True
    assert res["positive"] == [[0, 1], [1, 1]]
    assert res["negative"] == []
    assert res["num_canalizing_vars"] == 2


def test_classify_xor(capsys):
    doc = run_json(capsys, "classify", "--n", "2", "--hex", "6")
    assert doc["result"]["canalizing"] is False
    assert doc["result"]["positive"] == []


def test_classify_identity_both_ways(capsys):
    doc = run_json(capsys, "classify", "--n", "1", "--hex", "2")
    assert doc["result"]["both_ways_variable"] == 0


def test_classify_malformed_hex_exit_2(capsys):
    code, _, _ = run(capsys, "classify", "--n", "2", "--hex", "zz")
    assert code == 2
    for text in ("-fff", "+fff", "0xff", "f_ff"):
        code, _, _ = run(capsys, "classify", "--n", "4", f"--hex={text}")
        assert code == 2, text


def test_generate_envelope_and_soundness(capsys):
    doc = run_json(
        capsys, "generate", "--n", "3", "--p", "1/2", "--count", "5", "--seed", "7"
    )
    tables = doc["result"]["tables"]
    assert len(tables) == 5
    for text in tables:
        profile = classify(from_hex(3, text))
        assert profile.canalizing


def test_generate_deterministic_output(capsys):
    args = ("generate", "--n", "3", "--p", "1/2", "--count", "10", "--seed", "99")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_lines_format(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--n", "2", "--p", "1/2", "--count", "4", "--seed", "3",
        "--format", "lines",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for text in lines:
        assert classify(from_hex(2, text)).canalizing


def test_closed_stdout_exits_141_without_traceback():
    # 4000 n = 8 tables are 260 kB, more than a pipe holds, so the writer
    # is still writing when the reader goes away after one line
    env = {**os.environ, "PYTHONPATH": str(Path(canalis.__file__).parents[1])}
    argv = [
        sys.executable, "-m", "canalis",
        "generate", "--n", "8", "--p", "1/2", "--count", "4000", "--seed", "1",
        "--format", "lines",
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert len(first.strip()) == 64
    assert err == b""


def test_generate_records(capsys):
    doc = run_json(
        capsys,
        "generate", "--n", "2", "--p", "1/2", "--count", "3", "--seed", "11",
        "--records",
    )
    records = doc["result"]["records"]
    assert len(records) == 3
    for record in records:
        assert set(record) == {"q", "r", "subset", "values", "rejections"}


def test_generate_skewed_bias_draws_without_rejection(capsys):
    # p = 1/100 at n = 4: rejection sampling needed about 1/p^2 attempts in
    # q = 3 and gave up; every category at n <= 4 is now drawn directly
    doc = run_json(
        capsys,
        "generate", "--n", "4", "--p", "1/100", "--count", "500", "--seed", "1",
        "--records",
    )
    assert doc["params"]["stream"] == canalis.STREAM_VERSION
    records = doc["result"]["records"]
    assert len(records) == 500
    assert all(record["rejections"] == 0 for record in records if record["q"] >= 4 - 3)


def test_generate_records_require_json(capsys):
    code, _, _ = run(
        capsys,
        "generate", "--n", "2", "--p", "1/2", "--records", "--format", "lines",
    )
    assert code == 2


def test_generate_seed_drawn_and_echoed(capsys):
    doc = run_json(capsys, "generate", "--n", "2", "--p", "1/2", "--count", "1")
    assert isinstance(doc["params"]["seed"], int)
    assert 0 <= doc["params"]["seed"] < (1 << 64)


def test_generate_starvation_exit_4(capsys, monkeypatch):
    def starving_draw(self):
        raise RejectionLimitExceeded(2, 1, self.config.max_rejections)

    # patched on the real class, so the CLI reaches it through draws()
    monkeypatch.setattr(canalis.CanalizingGenerator, "draw", starving_draw)
    code, _, err = run(
        capsys, "generate", "--n", "2", "--p", "1/2", "--seed", "1"
    )
    assert code == 4
    assert "gave up" in err


def test_generate_lines_starvation_keeps_printed_lines(capsys, monkeypatch):
    real_draw = canalis.CanalizingGenerator.draw
    made = []

    def draw_then_starve(self):
        if len(made) == 2:
            raise RejectionLimitExceeded(2, 1, self.config.max_rejections)
        made.append(real_draw(self))
        return made[-1]

    monkeypatch.setattr(canalis.CanalizingGenerator, "draw", draw_then_starve)
    argv = ("generate", "--n", "2", "--p", "1/2", "--count", "5", "--seed", "3")
    code, out, err = run(capsys, *argv, "--format", "lines")
    assert code == 4 and "gave up" in err
    # lines are printed as they are drawn, so the two drawn ones stay
    assert out.splitlines() == [to_hex(table) for table, _ in made]
    made.clear()
    code, out, _ = run(capsys, *argv)
    assert code == 4 and out == ""


def test_verify_passes(capsys):
    doc = run_json(capsys, "verify", "--max-n", "2")
    assert doc["result"]["ok"] is True
    assert doc["result"]["checks_passed"] > 0


def test_verify_emit_census(capsys):
    doc = run_json(capsys, "verify", "--max-n", "2", "--emit-census")
    censuses = doc["result"]["censuses"]
    assert [c["n"] for c in censuses] == [1, 2]
    assert censuses[1]["canalizing"] == "14"


def test_verify_max_n_out_of_range_exit_2(capsys):
    for argv in (("--max-n", "9"), ("--max-n", "7"), ("--max-n", "0"), ("--deep-n5",)):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv


def test_verify_detects_mismatch_exit_5(capsys, monkeypatch):
    monkeypatch.setattr("canalis.cli.count_canalizing", lambda n: 13)
    code, out, err = run(capsys, "verify", "--max-n", "1")
    assert code == 5
    doc = json.loads(out)
    assert doc["result"]["ok"] is False
    assert "first_disagreement" in doc["result"]
    assert "MISMATCH" in err


# (argv, the canalis.cli name patched to disagree or None, exit code,
# SHA-256 of stdout). The verify envelope is stable API: these digests may
# change only with a deliberate, recorded change of its bytes.
GOLDEN_VERIFY = [
    (("--max-n", "4"), None, 0, "d8eac140eda9a3e6ce9d8ccb2488d1b667df2266a213fd4c047d03c6ff22e9c9"),
    (("--max-n", "6"), None, 0, "e18223e1f5b508f58bbef3610181d06f4dcf2bd635470010f1071d68ad76594a"),
    (("--max-n", "4", "--emit-census"), None, 0, "cdf2a0708eb7c14f9caee74a601ea95a9891a08973621494fbf707eb990cab0f"),
    (("--max-n", "1"), "count_canalizing", 5, "a89f6391fc69cd6070e18f37cc5ec9ff3edaa067ed0288e2295677d5d05aa4e5"),
    (("--max-n", "4"), "count_both_ways", 5, "ce463a288517ac324e9e55742a8f226f225cee17a4760ef2d2c332cc2563b2f7"),
    (("--max-n", "6"), "count_exact_k", 5, "59121c42248630efb3dddc82b01a3da3ef5938793fbc78f783549770c79e256f"),
]
DISAGREEING = {
    "count_canalizing": lambda n: 13,
    "count_both_ways": lambda n: 0,
    # disagrees only at n = 6, so the checks of n = 1..5 all pass first
    "count_exact_k": lambda n, k: count_exact_k(n, k) + (n == 6),
}


@pytest.mark.parametrize(
    "argv, patched, exit_code, digest",
    GOLDEN_VERIFY,
    ids=[" ".join(argv) + (f" {patched}" if patched else "") for argv, patched, _, _ in GOLDEN_VERIFY],
)
def test_golden_verify(capsys, monkeypatch, argv, patched, exit_code, digest):
    if patched:
        monkeypatch.setattr(f"canalis.cli.{patched}", DISAGREEING[patched])
    code, out, _ = run(capsys, "verify", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_no_subcommand_exit_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "canalis" in out
