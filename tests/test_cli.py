import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from degseq import DegreeSequence
from degseq.cli import build_parser, main
from degseq.graphicality import PREDICATE_NAMES

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "output.json").read_text())
VALIDATOR = Draft7Validator(SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    envelope = json.loads(out)
    VALIDATOR.validate(envelope)
    return envelope


class TestBasicCommands:
    def test_check_graphic(self, capsys):
        code, out, _ = run(capsys, "check", "4,4,3,1,1,1,1,1")
        assert code == 0 and out.strip() == "graphic"

    def test_check_not_graphic(self, capsys):
        code, out, _ = run(capsys, "check", "3,3,1,1")
        assert code == 0 and "k=2" in out

    def test_check_tv(self, capsys):
        envelope = run_json(capsys, "check", "4,4,3,1,1,1,1,1", "--tv")
        assert envelope["result"]["graphic"] is True
        assert set(envelope["result"]["checked_ks"]) <= {2, 3, 8}

    def test_leg(self, capsys):
        code, out, _ = run(
            capsys, "leg", "--n", "8", "--sigma", "16", "--c1", "4", "--c2", "1"
        )
        assert code == 0 and out.strip() == "4,4,3,1,1,1,1,1"

    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "2,1,1,1,1")
        assert code == 0 and out.strip() == "6"

    def test_round_trip_of_printed_sequences(self, capsys):
        envelope = run_json(
            capsys, "leg", "--n", "8", "--sigma", "16", "--c1", "4", "--c2", "1"
        )
        seq = DegreeSequence.parse(envelope["result"]["sequence"])
        assert str(seq) == envelope["result"]["sequence"]

    def test_enumerate(self, capsys):
        envelope = run_json(capsys, "enumerate", "2,2,2")
        assert envelope["result"]["realizations"] == ["1-2,1-3,2-3"]

    def test_pmeasure(self, capsys):
        envelope = run_json(capsys, "pmeasure", "1,1,1,1")
        assert envelope["result"]["p"] == "2/1"


class TestRegionCommands:
    def test_region_fixed_sum(self, capsys):
        envelope = run_json(
            capsys, "region", "--n", "8", "--sigma", "16", "--c1", "4", "--c2", "1"
        )
        assert envelope["result"] == {
            "fully_graphic": True,
            "leg": "4,4,3,1,1,1,1,1",
        }

    def test_region_very_simple(self, capsys):
        envelope = run_json(capsys, "region", "--n", "6", "--c1", "5", "--c2", "1")
        assert envelope["result"]["fully_graphic"] is False

    def test_region_text_form(self, capsys):
        envelope = run_json(capsys, "region", "n=8,sigma=16,c1=4,c2=1")
        assert envelope["result"]["fully_graphic"] is True
        code, _, err = run(capsys, "region")
        assert code == 2 and "either" in err

    def test_region_predicate_with_margin(self, capsys):
        envelope = run_json(
            capsys,
            "region", "--n", "8", "--sigma", "16", "--c1", "4", "--c2", "1",
            "--predicate", "phi_JMS_star_sigma",
        )
        assert envelope["result"]["holds"] is False
        assert envelope["result"]["margin"] == 8

    def test_region_predicate_epsilon(self, capsys):
        envelope = run_json(
            capsys,
            "region", "--n", "30", "--sigma", "84", "--c1", "3", "--c2", "2",
            "--predicate", "phi_eps", "--epsilon", "8/9",
        )
        assert envelope["result"]["holds"] is True
        assert envelope["result"]["exception_bound"] == pytest.approx(9 / 32)

    def test_sweep_rows_ordered(self, capsys):
        envelope = run_json(capsys, "sweep", "--n-min", "2", "--n-max", "3")
        rows = envelope["result"]["rows"]
        keys = [(r["n"], r["c1"], r["c2"]) for r in rows]
        assert keys == sorted(keys)
        assert {r["classification"] for r in rows} <= {
            "FULLY_GRAPHIC",
            "NOT_FULLY_GRAPHIC",
            "EMPTY",
        }
        by_key = {k: r["classification"] for k, r in zip(keys, rows)}
        assert by_key[(3, 1, 1)] == "EMPTY"  # no even sum available
        assert by_key[(3, 2, 1)] == "FULLY_GRAPHIC"
        assert by_key[(3, 2, 0)] == "NOT_FULLY_GRAPHIC"  # contains 2,2,0

    def test_sweep_with_sigma_marks_odd_sums_empty(self, capsys):
        envelope = run_json(
            capsys, "sweep", "--n-min", "3", "--n-max", "3", "--with-sigma"
        )
        rows = envelope["result"]["rows"]
        odd = [r for r in rows if r["sigma"] % 2]
        assert odd and all(r["classification"] == "EMPTY" for r in odd)
        keys = [(r["n"], r["sigma"], r["c1"], r["c2"]) for r in rows]
        assert keys == sorted(keys)


class TestWitnessCommands:
    def test_split_check(self, capsys):
        envelope = run_json(capsys, "split-check", "3,3,1,1,1,1")
        assert envelope["result"]["is_split"] is True

    def test_split_witness_found(self, capsys):
        envelope = run_json(capsys, "split-witness", "--n", "6", "--c1", "5", "--c2", "1")
        assert envelope["result"]["sequence"] == "3,3,1,1,1,1"
        assert envelope["result"]["clique"] == [1, 2]

    def test_split_witness_absent(self, capsys):
        envelope = run_json(capsys, "split-witness", "--n", "10", "--c1", "3", "--c2", "2")
        assert envelope["result"] == {"found": False}

    def test_tyshkevich_verify(self, capsys):
        envelope = run_json(capsys, "tyshkevich", "2,1,1", "1,1", "--verify")
        assert envelope["result"]["multiplicative"] is True
        assert envelope["result"]["composed"] == "4,3,3,3,1"

    def test_nonstab_witness(self, capsys):
        envelope = run_json(
            capsys,
            "nonstab-witness", "--n", "6", "--n-prime", "8",
            "--c1", "5", "--c2", "1", "--verify",
        )
        assert envelope["result"]["base_count"] == 1
        assert envelope["result"]["m"] == 2

    def test_staircase_family(self, capsys):
        envelope = run_json(capsys, "staircase-family", "4")
        assert envelope["result"]["count"] == 1
        assert envelope["result"]["bumped_count"] == 5


class TestMcmcCommand:
    def test_small_run_reports_tv(self, capsys):
        envelope = run_json(
            capsys, "mcmc", "1,1,1,1", "--steps", "2000", "--seed", "42"
        )
        result = envelope["result"]
        assert result["state_space"] == 3
        assert result["switch_connected"] is True
        assert result["tv_to_uniform"] < 0.2
        assert result["metadata"]["rng"] == "pcg64"
        assert sum(result["histogram"].values()) == 2000

    def test_large_instance_skips_exact_space(self, capsys):
        degrees = ",".join(["1"] * 18)  # beyond the counting limit
        envelope = run_json(
            capsys, "mcmc", degrees, "--steps", "50", "--seed", "1"
        )
        assert "tv_to_uniform" not in envelope["result"]
        assert sum(envelope["result"]["histogram"].values()) == 50


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "pmeasure", "3,3,1,1")
        assert code == 1 and "error" in err

    def test_invalid_region(self, capsys):
        code, _, err = run(capsys, "leg", "--n", "3", "--sigma", "7", "--c1", "2", "--c2", "0")
        assert code == 1 and "error" in err

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "count", ",".join(["1"] * 18))
        assert code == 3 and "error" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])  # missing the degree argument
        assert exc.value.code == 2


def run_fresh(*args, **env):
    """Run ``python *args`` in a fresh interpreter with the given limit variables."""
    base = {k: v for k, v in os.environ.items() if not k.startswith("DEGSEQ_")}
    base["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=60)


class TestLimitVariables:
    @pytest.mark.parametrize("name, value", [
        ("DEGSEQ_MAX_N", "abc"),
        ("DEGSEQ_MAX_N", "-1"),
        ("DEGSEQ_NODE_BUDGET", "1e6"),
    ])
    def test_bad_value_is_a_domain_error(self, name, value):
        done = run_fresh("-c", "import degseq", **{name: value})
        assert done.returncode == 0, done.stderr
        done = run_fresh("-m", "degseq.cli", "count", "1,1", **{name: value})
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and name in done.stderr
        assert "Traceback" not in done.stderr
        # commands that need no counting limit are unaffected
        done = run_fresh("-m", "degseq.cli", "check", "1,1", **{name: value})
        assert done.returncode == 0 and done.stdout.strip() == "graphic"

    def test_valid_value_is_honoured(self):
        done = run_fresh("-m", "degseq.cli", "count", ",".join(["1"] * 18), DEGSEQ_MAX_N="18")
        assert done.returncode == 0 and done.stdout.strip() == "34459425"  # 17!!


class TestParser:
    def test_built_once_and_not_at_import(self):
        done = run_fresh("-c", "import degseq.cli as c; print(c.build_parser.cache_info().currsize)")
        assert done.stdout.strip() == "0", done.stderr
        assert build_parser() is build_parser()

    def test_predicate_choices_are_the_library_names(self, capsys):
        for name in PREDICATE_NAMES:
            assert build_parser().parse_args(["region", "--predicate", name]).predicate == name
        with pytest.raises(SystemExit) as exc:
            main(["region", "--n", "4", "--c1", "2", "--c2", "1", "--predicate", "phi_X"])
        assert exc.value.code == 2
