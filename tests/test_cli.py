import json
import os
import subprocess
import sys
from pathlib import Path

import canalis
from canalis import RejectionLimitExceeded, classify, from_hex
from canalis.cli import main


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
    class Starving:
        def __init__(self, config):
            self.config = config

        def draw(self):
            raise RejectionLimitExceeded(2, 1, self.config.max_rejections)

    monkeypatch.setattr("canalis.cli.CanalizingGenerator", Starving)
    code, _, err = run(
        capsys, "generate", "--n", "2", "--p", "1/2", "--seed", "1"
    )
    assert code == 4
    assert "gave up" in err


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
    code, _, _ = run(capsys, "verify", "--max-n", "9")
    assert code == 2


def test_verify_detects_mismatch_exit_5(capsys, monkeypatch):
    monkeypatch.setattr("canalis.cli.count_canalizing", lambda n: 13)
    code, out, err = run(capsys, "verify", "--max-n", "1")
    assert code == 5
    doc = json.loads(out)
    assert doc["result"]["ok"] is False
    assert "first_disagreement" in doc["result"]
    assert "MISMATCH" in err


def test_verify_deep_n5(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "1", "--deep-n5")
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert doc["result"]["ok"] is True
    assert doc["result"]["deep_n5_count"] == "1292276"
    assert doc["result"]["deep_n5_expected"] == "1292276"


def test_no_subcommand_exit_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "canalis" in out
