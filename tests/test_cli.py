import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from degseq import (DegreeSequence, __version__, cli, core, enumeration, graphicality,
                    splitgraph, sweep)
from degseq.cli import build_parser, main
from degseq.core import SimpleRegion
from degseq.errors import LIMITS, DegseqError
from degseq.graphicality import PREDICATE_NAMES, is_graphic, iter_sweep, leg

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

    def test_enumerate_non_graphic_without_a_search(self, capsys):
        start = time.perf_counter()
        envelope = run_json(
            capsys, "enumerate", "13,13,12,11,11,11,10,10,8,5,4,4,3,3,3,1", "--limit", "1")
        assert time.perf_counter() - start < 1
        assert envelope["result"] == {"realizations": [], "yielded": 0}

    def test_enumerate_without_a_limit_is_capped_by_the_count(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "enumerate", ",".join(["3"] * 16))
        assert time.perf_counter() - start < 1
        refusal = ("error: ENUMERATE_MAX_GRAPHS exceeded: 50262958713792825 > 100000"
                   " realizations to list (pass a --limit up to it)\n")
        assert (code, out, err) == (3, "", refusal)
        over = str(LIMITS["ENUMERATE_MAX_GRAPHS"][0] + 1)
        code, _, err = run(capsys, "--json", "enumerate", ",".join(["3"] * 16), "--limit", over)
        assert (code, err) == (3, refusal)
        result = run_json(capsys, "enumerate", ",".join(["2"] * 9))["result"]
        assert result["yielded"] == len(set(result["realizations"])) == 30016

    def test_enumerate_within_the_cap_counts_nothing(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("counted")

        monkeypatch.setattr(cli, "count_realizations", no_count)
        result = run_json(capsys, "enumerate", ",".join(["3"] * 16), "--limit", "5")["result"]
        assert result["yielded"] == 5
        at_cap = str(LIMITS["ENUMERATE_MAX_GRAPHS"][0])
        assert run_json(capsys, "enumerate", "1,1,1,1", "--limit", at_cap)["result"]["yielded"] == 3

    def test_enumerate_limit(self, capsys):
        envelope = run_json(capsys, "enumerate", "1,1", "--limit", "0")
        assert envelope["result"] == {"realizations": [], "yielded": 0}
        code, _, err = run(capsys, "--json", "enumerate", "1,1", "--limit", "-1")
        assert code == 1 and "limit" in err

    @pytest.mark.parametrize("argv, envelope", [
        (["2,2,2,1,1", "--limit", "4"],
         '{"command": "enumerate", "inputs": {"degrees": "2,2,2,1,1", "limit": 4}, '
         '"result": {"realizations": ["1-2,1-3,2-3,4-5", "1-2,1-3,2-4,3-5", '
         '"1-2,1-3,2-5,3-4", "1-2,1-4,2-3,3-5"], "yielded": 4}, "version": "0.1.0"}'),
        (["3,3,2,2,1,1", "--limit", "5"],
         '{"command": "enumerate", "inputs": {"degrees": "3,3,2,2,1,1", "limit": 5}, '
         '"result": {"realizations": ["1-2,1-3,1-4,2-3,2-4,5-6", "1-2,1-3,1-4,2-3,2-5,4-6", '
         '"1-2,1-3,1-4,2-3,2-6,4-5", "1-2,1-3,1-4,2-4,2-5,3-6", "1-2,1-3,1-4,2-4,2-6,3-5"], '
         '"yielded": 5}, "version": "0.1.0"}'),
    ])
    def test_enumerate_golden_envelopes(self, capsys, argv, envelope):
        code, out, _ = run(capsys, "--json", "enumerate", *argv)
        assert code == 0 and out == envelope + "\n"

    @pytest.mark.parametrize("argv, text", [
        (["2,2,2,1,1", "--limit", "3"], "1-2,1-3,2-3,4-5\n1-2,1-3,2-4,3-5\n1-2,1-3,2-5,3-4\n"),
        (["1,1"], "1-2\n"),
        (["1,1", "--limit", "0"], "(no realizations)\n"),
        (["3,3,1,1"], "(no realizations)\n"),
    ])
    def test_enumerate_text_is_one_line_per_graph(self, capsys, argv, text):
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0 and out == text

    @pytest.mark.parametrize("masks", [
        [0b10, 0, 0, 1 << 4],  # a bit at n
        [1 << 70, 0, 0b1000, 0],  # a bit far above n
        [0b110, 0b1, 0, 0],  # a bit below u: (1, 0), the edge (0, 1) again
        [0b1, 0b1000, 0, 0],  # u's own bit: a self-loop at vertex 0
        [0b10, 0b10, 0, 0],  # u's own bit: a self-loop at vertex 1
        [0b10, -0b1000, 0, 0],  # a negative mask
    ])
    def test_enumerate_prints_no_unchecked_edge_list(self, capsys, monkeypatch, masks):
        # a well-formed graph, 1-2,3-4, then the malformed one: neither is printed
        monkeypatch.setattr(cli, "_realization_masks",
                            lambda seq, limit: iter([[0b10, 0, 0b1000, 0], masks]))
        code, out, err = run(capsys, "--json", "enumerate", "1,1,1,1")
        assert code == 1 and out == "" and err.startswith("error: ")

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

    def test_region_tiny_epsilon(self, capsys):
        argv = ("--json", "region", "--n", "4", "--sigma", "6", "--c1", "3", "--c2", "0",
                "--predicate", "phi_eps", "--epsilon")
        code, out, err = run(capsys, *argv, "1e-17")
        assert code == 0 and json.loads(out)["result"]["exception_bound"] == 5e33, err
        # 1 / (2 eps^2) is above the largest float
        code, out, err = run(capsys, *argv, "1e-400")
        assert (code, out) == (1, "") and err.startswith("error: "), err
        assert "Traceback" not in err

    def test_region_epsilon_usage_errors(self, capsys):
        for epsilon in ("abc", "1/0"):
            code, out, err = run(capsys, "region", "--n", "8", "--c1", "4", "--c2", "2",
                                 "--sigma", "20", "--predicate", "phi_eps",
                                 "--epsilon", epsilon)
            assert code == 2 and out == "" and err.startswith("error: "), epsilon

    def test_region_empty_epsilon_is_a_usage_error(self, capsys):
        # An empty value is a value: it is read, and refused, whatever the predicate.
        for mode in ((), ("--json",)):
            for predicate in PREDICATE_NAMES:
                for epsilon in (["--epsilon="], ["--epsilon", ""]):
                    code, out, err = run(capsys, *mode, "region", "--n", "8", "--c1", "4",
                                         "--c2", "1", "--sigma", "16", "--predicate",
                                         predicate, *epsilon)
                    assert (code, out) == (2, ""), (mode, predicate, epsilon)
                    assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_region_epsilon_without_predicate_is_a_usage_error(self, capsys):
        for mode in ((), ("--json",)):
            for region in (["--n", "8", "--c1", "4", "--c2", "1"], ["n=8,sigma=16,c1=4,c2=1"]):
                code, out, err = run(capsys, *mode, "region", *region, "--epsilon", "1/2")
                assert (code, out) == (2, ""), (mode, region)
                assert err == "error: --epsilon needs --predicate phi_eps\n", (mode, region)
        # with a predicate other than phi_eps, the predicate refuses it
        code, out, err = run(capsys, "region", "--n", "8", "--c1", "4", "--c2", "1",
                             "--predicate", "phi_JMS", "--epsilon", "1/2")
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1

    def test_predicate_on_invalid_region_exits_1(self, capsys):
        for argv in (["--n", "5", "--c1", "5", "--c2", "1", "--predicate", "phi_FG"],
                     ["--n", "5", "--c1", "9", "--c2", "-3", "--predicate", "phi_JMS"],
                     ["--n", "5", "--c1", "4", "--c2", "1", "--sigma", "7",
                      "--predicate", "phi_JMS_star_sigma"],
                     ["--n", "5", "--c1", "4", "--c2", "1", "--sigma", "22",
                      "--predicate", "phi_GS"]):
            code, out, err = run(capsys, "region", *argv)
            assert (code, out) == (1, "") and err.startswith("error: "), argv

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

    def test_sweep_too_large(self, capsys):
        code, _, err = run(capsys, "sweep", "--n-min", "1", "--n-max", "200", "--with-sigma")
        assert code == 3 and "1000000" in err

    def test_sweep_envelope_written_in_batches(self, capsys):
        # 346 rows: two batches of the envelope writer, then the empty sweep
        for n_min, n_max in ((5, 6), (6, 5)):
            argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max), "--with-sigma"]
            code, out, _ = run(capsys, "--json", *argv)
            rows = sweep(n_min, n_max, with_sigma=True)
            assert code == 0 and len(rows) in (0, 346) and cli._ROWS_PER_WRITE < 346
            assert out == json.dumps({
                "command": "sweep", "result": {"rows": rows}, "version": __version__,
                "inputs": {"n_max": n_max, "n_min": n_min, "with_sigma": True},
            }, sort_keys=True) + "\n"
        # The rows' JSON text comes from a template, not an encoder: it is
        # json.dumps of the library's row, byte for byte, at every n <= 12.
        for flag in ([], ["--with-sigma"]):
            args = build_parser().parse_args(["sweep", "--n-min", "0", "--n-max", "12", *flag])
            result, _ = cli.cmd_sweep(args)
            assert list(result["rows"]) == [json.dumps(row, sort_keys=True)
                                            for row in iter_sweep(0, 12, with_sigma=bool(flag))]

    def test_sweep_text_is_streamed_from_the_rows(self, capsys):
        # A grid's lines and the empty grid's one newline, as the joined text
        # printed them; the command hands main an iterator, not the text.
        for n_min, n_max, flag in ((2, 3, []), (6, 5, []), (0, 12, []),
                                   (0, 12, ["--with-sigma"])):
            argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max), *flag]
            lines = [" ".join(f"{k}={row[k]}" for k in ("n", "sigma", "c1", "c2") if k in row)
                     + f" {row['classification']}"
                     for row in sweep(n_min, n_max, with_sigma=bool(flag))]
            assert run(capsys, *argv) == (0, "\n".join(lines) + "\n", "")
            _, human = cli.cmd_sweep(build_parser().parse_args(argv))
            assert not isinstance(human, str) and list(human) == lines

    def test_sweep_rows_are_the_library_rows(self):
        # Each row's JSON and text line are joined from a block's pieces: they
        # are json.dumps of the library's row and its f-string line, n <= 20.
        for flag in ([], ["--with-sigma"]):
            args = build_parser().parse_args(["sweep", "--n-min", "1", "--n-max", "20", *flag])
            rows = list(iter_sweep(1, 20, with_sigma=bool(flag)))
            result, lines = cli.cmd_sweep(args)  # each over its own walk
            assert list(result["rows"]) == [json.dumps(row, sort_keys=True) for row in rows]
            assert list(lines) == [
                " ".join(f"{k}={row[k]}" for k in ("n", "sigma", "c1", "c2") if k in row)
                + f" {row['classification']}" for row in rows]

    def test_sweep_output_from_least_members(self, capsys):
        # Every row's JSON and text line, built here from is_graphic(leg(...))
        # without the sweep's walk, on ranges that start mid-grid.  Odd n
        # with an odd sigma = q*n admits c1 = q, unlike the other sums of q.
        def label(n, sigma, c1, c2):
            if sigma % 2:
                return "EMPTY"
            graphic = is_graphic(leg(SimpleRegion(n, sigma, c1, c2))).graphic
            return "FULLY_GRAPHIC" if graphic else "NOT_FULLY_GRAPHIC"

        grids = {}
        for n in range(2, 14):
            rows = [{"n": n, "sigma": sigma, "c1": c1, "c2": c2,
                     "classification": label(n, sigma, c1, c2)}
                    for sigma in range(n * (n - 1) + 1) for c1 in range(n)
                    for c2 in range(c1 + 1) if n * c2 <= sigma <= n * c1]
            plain = []
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    labels = {label(n, sigma, c1, c2)
                              for sigma in range(n * c2, n * c1 + 1)} - {"EMPTY"}
                    plain.append({"n": n, "c1": c1, "c2": c2, "classification": min(
                        labels, key=["NOT_FULLY_GRAPHIC", "FULLY_GRAPHIC"].index, default="EMPTY")})
            grids[n] = {(): plain, ("--with-sigma",): rows}
        assert any(row["sigma"] == row["c1"] * n and row["sigma"] % 2
                   for n in (3, 5) for row in grids[n][("--with-sigma",)])
        for n_min in range(2, 10):
            n_max = min(n_min + 4, 13)
            for flag in ((), ("--with-sigma",)):
                argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max), *flag]
                rows = [row for n in range(n_min, n_max + 1) for row in grids[n][flag]]
                inputs = {"n_max": n_max, "n_min": n_min, "with_sigma": bool(flag)}
                assert run(capsys, "--json", *argv) == (0, json.dumps(
                    {"command": "sweep", "inputs": inputs, "result": {"rows": rows},
                     "version": __version__}, sort_keys=True) + "\n", ""), argv
                lines = [" ".join(f"{key}={row[key]}" for key in ("n", "sigma", "c1", "c2")
                                  if key in row) + f" {row['classification']}" for row in rows]
                assert run(capsys, *argv) == (0, "\n".join(lines) + "\n", ""), argv

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

    def test_split_witness_where_a_round_robin_layout_collides(self, capsys):
        for n, c1, c2 in ((66, 54, 23), (78, 76, 61)):
            result = run_json(capsys, "split-witness", "--n", str(n), "--c1", str(c1),
                              "--c2", str(c2))["result"]
            degrees = [0] * n
            for edge in result["edges"].split(","):
                for v in edge.split("-"):
                    degrees[int(v) - 1] += 1
            assert ",".join(map(str, sorted(degrees, reverse=True))) == result["sequence"]

    def test_split_witness_in_bounded_time(self, capsys):
        start = time.perf_counter()
        result = run_json(capsys, "split-witness", "--n", "2000", "--c1", "1999",
                          "--c2", "3")["result"]
        assert time.perf_counter() - start < 1
        assert (result["ell"], result["clique"]) == (4, [1, 2, 3, 4])

    def test_witnesses_over_the_size_cap_exit_3(self, capsys):
        for argv in (["split-witness", "--n", "1000", "--c1", "999", "--c2", "500"],
                     ["split-witness", "--n", "1000000", "--c1", "5", "--c2", "0"],
                     ["nonstab-witness", "--n", "4", "--n-prime", "1000004",
                      "--c1", "3", "--c2", "0"]):
            start = time.perf_counter()
            code, out, err = run(capsys, "--json", *argv)
            assert time.perf_counter() - start < 1
            assert code == 3 and out == "" and "WITNESS_MAX_SIZE" in err, argv

    def test_split_witness_absent(self, capsys):
        envelope = run_json(capsys, "split-witness", "--n", "10", "--c1", "3", "--c2", "2")
        assert envelope["result"] == {"found": False}

    def test_tyshkevich_verify(self, capsys):
        envelope = run_json(capsys, "tyshkevich", "2,1,1", "1,1", "--verify")
        assert envelope["result"]["multiplicative"] is True
        assert envelope["result"]["composed"] == "4,3,3,3,1"

    def test_tyshkevich_runs_the_split_test_once(self, capsys, monkeypatch):
        calls = {"hs_index": 0, "is_graphic": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(splitgraph, "hs_index")
        counted(graphicality, "is_graphic")
        envelope = run_json(capsys, "tyshkevich", "3,2,2,1", "2,1,1", "--verify")
        assert envelope["result"]["multiplicative"] is True
        # the split test, then the greedy start of each factor
        assert calls["hs_index"] == 1 and calls["is_graphic"] <= 3, calls

    def test_nonstab_witness(self, capsys):
        envelope = run_json(
            capsys,
            "nonstab-witness", "--n", "6", "--n-prime", "8",
            "--c1", "5", "--c2", "1", "--verify",
        )
        assert envelope["result"]["base_count"] == 1
        assert envelope["result"]["m"] == 2

    def test_nonstab_witness_builds_no_graph_for_its_degrees(self, capsys):
        # The composition it describes has 2004 vertices and 1,002,000 edges.
        start = time.perf_counter()
        envelope = run_json(
            capsys, "nonstab-witness", "--n", "4", "--n-prime", "1004", "--c1", "3", "--c2", "0")
        assert time.perf_counter() - start < 1
        assert envelope["result"]["m"] == 1000
        assert len(envelope["result"]["base"].split(",")) == 2004

    def test_nonstab_witness_above_the_counting_limit(self, capsys):
        # Uniqueness is decided without counting; only --verify counts.
        envelope = run_json(
            capsys, "nonstab-witness", "--n", "20", "--n-prime", "22", "--c1", "19", "--c2", "3")
        result = envelope["result"]
        assert (result["ell"], result["m"], result["unique_verified"]) == (19, 2, True)
        assert result["base"] == ",".join(map(str, [23] * 3 + [22] * 17 + [21, 21, 20, 3]))
        assert "base_count" not in result

    def test_nonstab_witness_in_bounded_time(self, capsys):
        for n in (200, 2000):
            start = time.perf_counter()
            result = run_json(capsys, "nonstab-witness", "--n", str(n), "--n-prime",
                              str(n + 2), "--c1", str(n - 1), "--c2", "3")["result"]
            assert time.perf_counter() - start < 1
            assert (result["ell"], result["unique_verified"]) == (n - 1, True)

    def test_nonstab_witness_verifies_a_long_threshold_base(self, capsys):
        # a base of 2,004 entries with exactly one realization
        result = run_json(capsys, "nonstab-witness", "--n", "2000", "--n-prime", "2002",
                          "--c1", "1999", "--c2", "3", "--verify")["result"]
        assert len(result["base"].split(",")) == 2004
        assert (result["m"], result["base_count"], result["perturbed_count"]) == (2, 1, 1)

    def test_nonstab_witness_bump_counts_as_the_bumped_staircase(self, capsys):
        # Tyshkevich multiplicativity through two commands: the split part's one
        # realization leaves the staircase's counts, 1 and F(2m - 3).
        for m in range(2, 8):
            family = run_json(capsys, "staircase-family", str(m))["result"]
            witness = run_json(capsys, "nonstab-witness", "--n", "5", "--n-prime", str(5 + m),
                               "--c1", "4", "--c2", "1", "--verify")["result"]
            assert (witness["base_count"], witness["perturbed_count"]) == (
                family["count"], family["bumped_count"]) == (1, [1, 2, 5, 13, 34, 89][m - 2])

    def test_staircase_family(self, capsys):
        envelope = run_json(capsys, "staircase-family", "4")
        assert envelope["result"]["count"] == 1
        assert envelope["result"]["bumped_count"] == 5

    def test_staircase_family_over_the_counting_limit_builds_nothing(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "staircase-family", str(10**12))
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == ("error: WITNESS_MAX_SIZE exceeded: 2000000000000 > 200000 entries plus"
                       " edges that leg or a witness builder lays out\n")

    def test_staircase_family_beyond_sixteen_entries(self, capsys):
        result = run_json(capsys, "staircase-family", "20")["result"]
        assert (result["count"], result["bumped_count"]) == (1, 24157817)


class TestMcmcCommand:
    def test_small_run_reports_tv(self, capsys):
        envelope = run_json(
            capsys, "mcmc", "1,1,1,1", "--steps", "2000", "--seed", "42"
        )
        result = envelope["result"]
        assert result["state_space"] == 3
        assert result["switch_connected"] is True
        assert result["tv_to_uniform"] < 0.2
        assert result["metadata"]["rng"] == "shake128"
        assert sum(result["histogram"].values()) == 2000

    def test_large_instance_skips_exact_space(self, capsys, monkeypatch):
        def no_count(seq):
            raise AssertionError(f"counted {seq}")

        monkeypatch.setattr(cli, "count_realizations", no_count)
        degrees = ",".join(["1"] * 18)  # above ENUMERATE_MAX_N
        envelope = run_json(
            capsys, "mcmc", degrees, "--steps", "50", "--seed", "1"
        )
        assert not {"state_space", "tv_to_uniform", "switch_connected"} & set(envelope["result"])
        assert sum(envelope["result"]["histogram"].values()) == 50

    @pytest.mark.parametrize("steps, burn_in", [(10**11, 0), (1, 10**11)])
    def test_chain_over_its_work_cap_exits_3(self, capsys, steps, burn_in):
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "mcmc", "2,2,2", "--steps", str(steps),
                             "--seed", "1", "--burn-in", str(burn_in))
        assert time.perf_counter() - start < 1
        work = (steps + burn_in) * (3 + 4) + 3 * 3
        assert code == 3 and out == ""
        cap = LIMITS["MCMC_MAX_WORK"][0]
        assert err == (f"error: MCMC_MAX_WORK exceeded: {work} > {cap} units of"
                       " work for one chain, (burn_in + steps) * (m + 4) + n * n, or a greedy"
                       " start, n * n\n")

    def test_exact_space_report_enumerates_nothing(self, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("an enumerator was called")

        monkeypatch.setattr(cli, "_realization_masks", no_enumeration)
        monkeypatch.setattr(enumeration, "_realization_masks", no_enumeration)
        monkeypatch.setattr(enumeration, "enumerate_realizations", no_enumeration)
        envelope = run_json(capsys, "mcmc", "2,2,2,1,1", "--steps", "3000", "--seed", "7")
        result = envelope["result"]
        assert result["state_space"] == 7 and result["switch_connected"] is True
        hist = result["histogram"]
        assert result["distinct_states"] == len(hist) <= 7 and sum(hist.values()) == 3000
        want = 0.5 * (sum(abs(v / 3000 - 1 / 7) for v in hist.values()) + (7 - len(hist)) / 7)
        assert result["tv_to_uniform"] == pytest.approx(want, abs=1e-12)

    def test_zero_steps_report_the_state_space_without_tv(self, capsys):
        envelope = run_json(capsys, "mcmc", "1,1,1,1", "--steps", "0", "--seed", "3")
        result = envelope["result"]
        assert result["state_space"] == 3 and result["switch_connected"] is True
        assert "tv_to_uniform" not in result
        assert result["histogram"] == {} and result["distinct_states"] == 0
        code, out, _ = run(capsys, "mcmc", "1,1,1,1", "--steps", "0", "--seed", "3")
        assert code == 0 and "TV" not in out

    # The envelopes of the parent commit, which labelled the final edges again:
    # no step, and a sequence with one realization, where every step is lazy.
    START = "1-2,1-3,1-4,1-5,1-6,2-3,2-4,2-5,3-4"
    NO_MOVE = {
        "0": '{"command": "mcmc", "inputs": {"burn_in": 0, "degrees": "5,4,3,3,2,1", "seed": 1, '
             '"steps": 0}, "result": {"distinct_states": 0, "final": "%s", "histogram": {}, '
             '"metadata": {"accepted": 0, "burn_in": 0, "rng": "shake128", "seed": 1, '
             '"start": "%s", "steps": 0}, "state_space": 1, "switch_connected": true}, '
             '"version": "0.1.0"}\n' % (START, START),
        "5": '{"command": "mcmc", "inputs": {"burn_in": 0, "degrees": "5,4,3,3,2,1", "seed": 1, '
             '"steps": 5}, "result": {"distinct_states": 1, "final": "%s", '
             '"histogram": {"%s": 5}, "metadata": {"accepted": 0, "burn_in": 0, '
             '"rng": "shake128", "seed": 1, "start": "%s", "steps": 5}, "state_space": 1, '
             '"switch_connected": true, "tv_to_uniform": 0.0}, "version": "0.1.0"}\n'
             % (START, START, START),
    }

    @pytest.mark.parametrize("steps", NO_MOVE)
    def test_final_without_a_move_is_the_start_text(self, capsys, monkeypatch, steps):
        def no_labels(edges):
            raise AssertionError("the final state was labelled again")

        monkeypatch.setattr(cli, "edges_to_text", no_labels)
        argv = ["--json", "mcmc", "5,4,3,3,2,1", "--steps", steps, "--seed", "1"]
        assert run(capsys, *argv) == (0, self.NO_MOVE[steps], "")

    def test_final_after_moves_is_the_walks_text(self, capsys, monkeypatch):
        # 75^1000 has 37,500 edges, more than the label memo holds: labelling
        # the final state again would format most of its labels a second time.
        formatted = Counter()
        missing = core._EdgeLabels.__missing__

        def counted(labels, edge):
            formatted[edge] += 1
            return missing(labels, edge)

        core._EDGE_LABELS.clear()
        monkeypatch.setattr(core._EdgeLabels, "__missing__", counted)
        result = run_json(capsys, "mcmc", ",".join(["75"] * 1000), "--steps", "6",
                          "--seed", "1", "--burn-in", "2")["result"]
        moves = result["metadata"]["accepted"]
        assert moves > 0
        # Each start edge is labelled once, and each move labels its two new edges.
        assert sum(formatted.values()) <= 37_500 + 2 * moves
        final = [tuple(map(int, pair.split("-"))) for pair in result["final"].split(",")]
        assert final == sorted(final) and len(final) == 37_500
        assert result["histogram"][result["final"]] >= 1

    def test_seed_domain(self, capsys):
        code, _, err = run(capsys, "mcmc", "1,1,1,1", "--steps", "10", "--seed", "-1")
        assert code == 1 and err.startswith("error: seed")
        envelope = run_json(capsys, "mcmc", "1,1,1,1", "--steps", "10", "--seed", str(2**130))
        assert envelope["result"]["metadata"]["seed"] == 2**130

    def test_state_space_report_whenever_the_counter_answers(self, capsys):
        result = run_json(
            capsys, "mcmc", "2,2,2,2,2,2,2,2,2", "--steps", "1000", "--seed", "1")["result"]
        assert result["state_space"] == 30016 and result["switch_connected"] is True
        hist = result["histogram"]
        want = 0.5 * (sum(abs(v / 1000 - 1 / 30016) for v in hist.values())
                      + (30016 - len(hist)) / 30016)
        assert result["tv_to_uniform"] == pytest.approx(want, abs=1e-12)
        with pytest.raises(SystemExit) as exc:
            main(["mcmc", "1,1,1,1", "--steps", "10", "--seed", "1", "--tv-max-states", "9"])
        assert exc.value.code == 2


def dumped(argv):
    """``json.dumps`` of the envelope of a ``--json`` run of ``argv``, built from
    the command's own result, not through the CLI's writer."""
    args = cli._parse(argv.split())
    result, _ = cli.COMMANDS[args.command][0](args)
    inputs = {key: str(value) if isinstance(value, DegreeSequence) else value
              for key, value in vars(args).items() if key not in ("json", "command")}
    return json.dumps({"command": args.command, "inputs": inputs, "result": result,
                       "version": __version__}, sort_keys=True) + "\n"


class Writes(io.StringIO):
    """A stdout that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestStreamedEnvelopes:
    """A sweep's rows, enumerate's graphs and the chain's histogram are written
    a batch at a time; the envelope is still json.dumps of the result."""

    @pytest.mark.parametrize("argv", [
        "mcmc 1,1,1,1 --steps 0 --seed 3",  # the empty histogram, {}
        "mcmc 2,2,2,1,1 --steps 3000 --seed 7",  # with state_space
        "mcmc " + ",".join(["1"] * 18) + " --steps 600 --seed 1",  # without it
        "enumerate 1,1 --limit 0",
        "enumerate 3,3,1,1",  # not graphic: the empty list
        "enumerate 2,2,2,2,2,2,2 --limit 300",  # 300 of its 465 graphs
    ])
    def test_streamed_envelope_is_json_dumps(self, capsys, argv):
        expected = dumped(argv)
        assert run(capsys, "--json", *argv.split()) == (0, expected, "")

    @pytest.mark.parametrize("states", [255, 256, 257, 513])
    def test_histogram_batches(self, monkeypatch, states):
        # The first `states` graphs of 2^9, each with its own count, as the
        # chain's histogram: _ROWS_PER_WRITE items a write, the rest in one.
        seq = DegreeSequence([2] * 9)
        texts = [cli.edges_to_text(g.edges())
                 for g in enumeration.enumerate_realizations(seq, states)]
        real_sample = cli.sample

        def sample(seq, config):
            run = real_sample(seq, config)
            hist = Counter({text: i % 7 + 1 for i, text in enumerate(texts)})
            return type(run)(final=run.final, histogram=hist, metadata=run.metadata,
                             final_text=run.final_text)

        monkeypatch.setattr(cli, "sample", sample)
        argv = "mcmc 2,2,2,2,2,2,2,2,2 --steps 10 --seed 1"
        expected = dumped(argv)
        out = Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["--json", *argv.split()]) == 0
        assert out.getvalue() == expected and f'"distinct_states": {states},' in expected
        items = [len(re.findall(r'"[\d,-]+": \d', text)) for text in out.writes]
        size = cli._ROWS_PER_WRITE
        assert [count for count in items if count] == [size] * (states // size) + (
            [states % size] if states % size else [])


# Stdout of every subcommand in both modes.  ``inputs`` echoes the parsed
# arguments, degree text in canonical form (the unsorted arguments come back
# sorted); ``region`` echoes the region it decided, not how it was named.
GOLDEN_STDOUT = [
    ('check 1,3,3,1',
     'not graphic (inequality fails at k=2)\n',
     '{"command": "check", "inputs": {"degrees": "3,3,1,1", "tv": false}, '
     '"result": {"checked_ks": [1, 2], "failing_k": 2, "graphic": false, '
     '"odd_sum": false, "sequence": "3,3,1,1", "stability_bound": false}, '
     '"version": "0.1.0"}\n'),
    ('leg --n 8 --sigma 16 --c1 4 --c2 1',
     '4,4,3,1,1,1,1,1\n',
     '{"command": "leg", "inputs": {"c1": 4, "c2": 1, "n": 8, "sigma": 16}, '
     '"result": {"sequence": "4,4,3,1,1,1,1,1"}, "version": "0.1.0"}\n'),
    ('region n=8,sigma=16,c1=4,c2=1',
     'fully graphic\n',
     '{"command": "region", "inputs": {"c1": 4, "c2": 1, "n": 8, "sigma": 16}, '
     '"result": {"fully_graphic": true, "leg": "4,4,3,1,1,1,1,1"}, "version": "0.1.0"}\n'),
    ('region --n 8 --c1 4 --c2 2 --sigma 20 --predicate phi_eps --epsilon 1/2',
     'phi_eps: fails\n',
     '{"command": "region", "inputs": {"c1": 4, "c2": 2, "n": 8, "predicate": "phi_eps", '
     '"sigma": 20}, "result": {"epsilon": "1/2", "exception_bound": 1.4571067811865475, '
     '"holds": false, "predicate": "phi_eps"}, "version": "0.1.0"}\n'),
    ('count 1,2,1,1,1',
     '6\n',
     '{"command": "count", "inputs": {"degrees": "2,1,1,1,1"}, "result": {"count": 6, '
     '"from_cache": false, "nodes_explored": 6}, "version": "0.1.0"}\n'),
    ('enumerate 1,1,1,1',
     '1-2,3-4\n1-3,2-4\n1-4,2-3\n',
     '{"command": "enumerate", "inputs": {"degrees": "1,1,1,1", "limit": null}, '
     '"result": {"realizations": ["1-2,3-4", "1-3,2-4", "1-4,2-3"], "yielded": 3}, '
     '"version": "0.1.0"}\n'),
    ('pmeasure 2,2,2',
     '3\n',
     '{"command": "pmeasure", "inputs": {"degrees": "2,2,2"}, "result": {"base_count": 1, '
     '"p": "3/1", "p_float": 3.0}, "version": "0.1.0"}\n'),
    # p = 0, an integer p = 6/3 in lowest terms, and a p that is not an integer
    ('pmeasure 0,0,0',
     '0\n',
     '{"command": "pmeasure", "inputs": {"degrees": "0,0,0"}, "result": {"base_count": 1, '
     '"p": "0/1", "p_float": 0.0}, "version": "0.1.0"}\n'),
    ('pmeasure 1,1,1,1',
     '2\n',
     '{"command": "pmeasure", "inputs": {"degrees": "1,1,1,1"}, "result": {"base_count": 3, '
     '"p": "2/1", "p_float": 2.0}, "version": "0.1.0"}\n'),
    ('pmeasure 2,2,1,1',
     '7/2\n',
     '{"command": "pmeasure", "inputs": {"degrees": "2,2,1,1"}, "result": {"base_count": 2, '
     '"p": "7/2", "p_float": 3.5}, "version": "0.1.0"}\n'),
    ('family-bounds 1,1,1,1',
     'pair_bound: 12 <= 240 ok\ndouble_bound: 4 <= 192 ok\nmixed_bound: 12 <= 1632 ok\n',
     '{"command": "family-bounds", "inputs": {"degrees": "1,1,1,1"}, '
     '"result": {"all_hold": true, "base_count": 3, "checks": [{"holds": true, "lhs": 12, '
     '"name": "pair_bound", "rhs": 240}, {"holds": true, "lhs": 4, '
     '"name": "double_bound", "rhs": 192}, {"holds": true, "lhs": 12, '
     '"name": "mixed_bound", "rhs": 1632}], "families": {"++": 12, "+-": 12, "+2": 4, '
     '"--": 6, "-2": 0}, "plus_minus_empty": false}, "version": "0.1.0"}\n'),
    ('staircase-family 3',
     'count=1 bumped_count=2\n',
     '{"command": "staircase-family", "inputs": {"m": 3}, "result": {"bumped_count": 2, '
     '"bumped_sequence": "5,4,4,3,2,2", "count": 1, "m": 3, "sequence": "5,4,3,3,2,1"}, '
     '"version": "0.1.0"}\n'),
    ('split-check 1,3,1,3,1,1',
     'split\n',
     '{"command": "split-check", "inputs": {"degrees": "3,3,1,1,1,1"}, '
     '"result": {"is_split": true, "lhs": 6, "m": 2, "rhs": 6}, "version": "0.1.0"}\n'),
    ('split-witness --n 5 --c1 4 --c2 1',
     '3,2,1,1,1 (clique size 2)\n',
     '{"command": "split-witness", "inputs": {"c1": 4, "c2": 1, "n": 5}, '
     '"result": {"alpha": 1, "c": 1, "clique": [1, 2], "cross_edges": 3, '
     '"edges": "1-2,1-3,1-5,2-4", "ell": 2, "found": true, "independent": [3, 4, 5], '
     '"sequence": "3,2,1,1,1"}, "version": "0.1.0"}\n'),
    ('tyshkevich 2,1,1 1,1',
     '4,3,3,3,1\n',
     '{"command": "tyshkevich", "inputs": {"other_degrees": "1,1", '
     '"split_degrees": "2,1,1", "verify": false}, "result": {"composed": "4,3,3,3,1", '
     '"edges": "1-2,1-3,1-4,1-5,2-4,2-5,4-5"}, "version": "0.1.0"}\n'),
    ('nonstab-witness --n 4 --n-prime 6 --c1 3 --c2 0 --verify',
     'base=4,4,3,3,2,0,0,0 perturbed=4,4,4,3,3,0,0,0 counts=1,1\n',
     '{"command": "nonstab-witness", "inputs": {"c1": 3, "c2": 0, "n": 4, "n_prime": 6, '
     '"verify": true}, "result": {"base": "4,4,3,3,2,0,0,0", "base_count": 1, "ell": 1, '
     '"found": true, "m": 2, "perturbed": "4,4,4,3,3,0,0,0", "perturbed_count": 1, '
     '"unique_verified": true}, "version": "0.1.0"}\n'),
    ('mcmc 2,2,2,1,1 --steps 20 --seed 1',
     'visited 5 states in 20 steps, TV to uniform 0.4643\n',
     '{"command": "mcmc", "inputs": {"burn_in": 0, "degrees": "2,2,2,1,1", "seed": 1, '
     '"steps": 20}, "result": {"distinct_states": 5, "final": "1-2,1-3,2-4,3-5", '
     '"histogram": {"1-2,1-3,2-3,4-5": 2, "1-2,1-3,2-4,3-5": 6, "1-2,1-3,2-5,3-4": 1, '
     '"1-2,1-5,2-3,3-4": 9, "1-3,1-5,2-3,2-4": 2}, "metadata": {"accepted": 8, '
     '"burn_in": 0, "rng": "shake128", "seed": 1, "start": "1-2,1-3,2-3,4-5", '
     '"steps": 20}, "state_space": 7, "switch_connected": true, '
     '"tv_to_uniform": 0.46428571428571425}, "version": "0.1.0"}\n'),
    ('sweep --n-min 3 --n-max 3',
     'n=3 c1=0 c2=0 FULLY_GRAPHIC\n'
     'n=3 c1=1 c2=0 FULLY_GRAPHIC\n'
     'n=3 c1=1 c2=1 EMPTY\n'
     'n=3 c1=2 c2=0 NOT_FULLY_GRAPHIC\n'
     'n=3 c1=2 c2=1 FULLY_GRAPHIC\n'
     'n=3 c1=2 c2=2 FULLY_GRAPHIC\n',
     '{"command": "sweep", "inputs": {"n_max": 3, "n_min": 3, "with_sigma": false}, '
     '"result": {"rows": [{"c1": 0, "c2": 0, "classification": "FULLY_GRAPHIC", "n": 3}, '
     '{"c1": 1, "c2": 0, "classification": "FULLY_GRAPHIC", "n": 3}, {"c1": 1, "c2": 1, '
     '"classification": "EMPTY", "n": 3}, {"c1": 2, "c2": 0, '
     '"classification": "NOT_FULLY_GRAPHIC", "n": 3}, {"c1": 2, "c2": 1, '
     '"classification": "FULLY_GRAPHIC", "n": 3}, {"c1": 2, "c2": 2, '
     '"classification": "FULLY_GRAPHIC", "n": 3}]}, "version": "0.1.0"}\n'),
]


class TestGoldenStdout:
    def test_every_subcommand_is_covered(self):
        commands = {argv.split()[0] for argv, _, _ in GOLDEN_STDOUT}
        assert commands == set(SCHEMA["properties"]["command"]["enum"])
        assert SCHEMA["properties"]["command"]["enum"] == list(cli.COMMANDS)

    def test_main_runs_the_command_of_the_table(self, capsys, monkeypatch):
        golden = {argv.split()[0]: argv.split() for argv, _, _ in GOLDEN_STDOUT}
        for name, (command, *rest) in list(cli.COMMANDS.items()):
            assert command is getattr(cli, "cmd_" + name.replace("-", "_"))
            ran = []
            monkeypatch.setitem(cli.COMMANDS, name,
                                (lambda args: ran.append(args.command) or ({}, "ran"), *rest))
            assert run(capsys, *golden[name]) == (0, "ran\n", "")
            assert ran == [name]

    @pytest.mark.parametrize("argv, human, envelope", GOLDEN_STDOUT,
                             ids=[argv for argv, _, _ in GOLDEN_STDOUT])
    def test_stdout(self, capsys, monkeypatch, argv, human, envelope):
        counter = enumeration.default_counter()
        for mode, expected in (([], human), (["--json"], envelope)):
            monkeypatch.setattr(counter, "_memo", {})  # count reports a cold query
            assert run(capsys, *mode, *argv.split()) == (0, expected, "")


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "pmeasure", "3,3,1,1")
        assert code == 1 and "error" in err

    def test_invalid_region(self, capsys):
        code, _, err = run(capsys, "leg", "--n", "3", "--sigma", "7", "--c1", "2", "--c2", "0")
        assert code == 1 and "error" in err

    def test_too_large(self, capsys):
        # 1000^2000 passes the step budget on its second node
        code, out, err = run(capsys, "count", ",".join(["1000"] * 2000))
        assert code == 3 and out == ""
        assert re.fullmatch(r"error: DEGSEQ_STEP_BUDGET exceeded: \d+ > 3000000 steps in one"
                            r" count \(set the variable to change it\)\n", err)

    @pytest.mark.parametrize("argv", [
        ["check", "1,x"], ["--json", "tyshkevich", "2,1,1", "x"], ["count", "2,-1"]])
    def test_bad_degree_text_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

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
        ("DEGSEQ_STEP_BUDGET", "abc"),
        ("DEGSEQ_STEP_BUDGET", "-1"),
        ("DEGSEQ_STEP_BUDGET", "1e6"),
    ])
    def test_bad_value_is_a_domain_error(self, name, value):
        done = run_fresh("-c", "import degseq", **{name: value})
        assert done.returncode == 0, done.stderr
        done = run_fresh("-m", "degseq.cli", "count", "1,1", **{name: value})
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and name in done.stderr
        assert "Traceback" not in done.stderr
        # commands that count nothing are unaffected
        done = run_fresh("-m", "degseq.cli", "check", "1,1", **{name: value})
        assert done.returncode == 0 and done.stdout.strip() == "graphic"

    def test_recursion_limit_plays_no_part(self):
        # The counter nests no call per node, so the step budget alone
        # decides: deep eliminations answer under a recursion limit of 100.
        code = ("import math, sys\nfrom degseq import *\nsys.setrecursionlimit(100)\n"
                "print(*count_staircase_family(40))\n"
                "print(count_realizations(DegreeSequence([1] * 2000)).count"
                " == math.prod(range(1, 2000, 2)))")
        done = run_fresh("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 5527939700884757\nTrue\n"  # F(77); 1999!!
        done = run_fresh("-m", "degseq.cli", "staircase-family", "40")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "count=1 bumped_count=5527939700884757\n"
        done = run_fresh("-m", "degseq.cli", "count", ",".join(["1"] * 2000))
        assert done.returncode == 0 and done.stdout == f"{math.prod(range(1, 2000, 2))}\n"

    def test_valid_value_is_honoured(self):
        argv = ("-m", "degseq.cli", "count", ",".join(["1"] * 18))
        done = run_fresh(*argv, DEGSEQ_STEP_BUDGET="10")
        assert done.returncode == 3
        assert done.stderr == ("error: DEGSEQ_STEP_BUDGET exceeded: 98 > 10 steps in one count"
                               " (set the variable to change it)\n")
        # 1^18 holds 9 open nodes at once, each charged for its frame
        done = run_fresh(*argv, DEGSEQ_STEP_BUDGET="1000")
        assert done.returncode == 0 and done.stdout.strip() == "34459425"  # 17!!


class TestImportCost:
    def test_runs_without_numpy(self):
        code = ("import sys\n"
                "sys.modules['numpy'] = None  # any import of numpy now fails\n"
                "import degseq.cli\n"
                "from degseq import ChainConfig, DegreeSequence, sample\n"
                "run = sample(DegreeSequence([2, 2, 1, 1, 1, 1]), ChainConfig(seed=1, steps=50))\n"
                "assert sum(run.histogram.values()) == 50\n"
                "sys.exit(degseq.cli.main(['--json', 'mcmc', '2,2,2,1,1', '--steps', '20', '--seed', '1']))")
        done = run_fresh("-c", code)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["result"]["state_space"] == 7

    def test_import_leaves_numpy_out(self):
        done = run_fresh("-c", "import sys, degseq.cli; print('numpy' in sys.modules)")
        assert done.stdout.strip() == "False", done.stderr

    def test_import_leaves_the_heavy_stdlib_out(self):
        # dataclasses pulls in inspect, ast and dis; typing is annotations only;
        # hashlib loads OpenSSL, and the chain's SHAKE comes from _sha3; argv is
        # read without argparse (and its gettext), and envelopes are encoded
        # without json.  fractions (with decimal, numbers and re) loads only
        # where a Fraction is made: p_measure, an epsilon, its exception bound.
        # -I -S: no site packages, no environment, so nothing else loads them,
        # on import or in a successful command.
        argv = [["check", "1,1"], ["sweep", "--n-min", "2", "--n-max", "30"],
                ["pmeasure", "3,3,2,2,2"], ["count", "3,3,2,2,2"],
                ["mcmc", "2,2,2,1,1", "--steps", "300", "--seed", "1"],
                ["enumerate", "2,2,2,2,2,2,2", "--limit", "300"],
                ["region", "n=8,sigma=16,c1=4,c2=1"],
                ["region", "--n", "8", "--c1", "4", "--c2", "2", "--predicate", "phi_JMS"]]
        code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import degseq.cli\n"
                "heavy = {'dataclasses', 'inspect', 'typing', 'hashlib', '_hashlib',"
                " 'argparse', 'gettext', 'json', 'fractions', 'decimal', 'numbers', 're'}\n"
                "print(sorted(heavy & set(sys.modules)))\n"
                "out, sys.stdout = sys.stdout, io.StringIO()\n"
                f"codes = [degseq.cli.main(['--json', *argv]) for argv in {argv!r}]\n"
                "sys.stdout = out; print(codes, sorted(heavy & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"[]\n{[0] * len(argv)} []\n"

    def test_envelopes_without_the_c_encoder(self):
        # Where _json is missing, json's own encoder writes the same bytes.
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "if sys.argv[2] == 'off': sys.modules['_json'] = None\n"
                "import degseq.cli\n"
                "for argv in sys.argv[3:]: degseq.cli.main(['--json', *argv.split()])\n"
                "print('json' in sys.modules)")
        argv = [argv for argv, _, _ in GOLDEN_STDOUT] + [
            "sweep --n-min 2 --n-max 10 --with-sigma",
            "mcmc 2,2,2,2,2,2,2,2,2 --steps 1000 --seed 1",  # 615 states
            "enumerate 2,2,2,2,2,2,2 --limit 300"]
        on, off = (subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"), mode,
                                   *argv], capture_output=True, text=True, timeout=60)
                   for mode in ("on", "off"))
        assert on.returncode == off.returncode == 0, off.stderr
        assert on.stdout.endswith("\nFalse\n") and off.stdout.endswith("\nTrue\n")
        assert on.stdout[:-6] == off.stdout[:-5]
        assert on.stdout.count("\n") == len(argv) + 1


# Values of each kind an argument of ``COMMANDS`` takes, then values it refuses.
VALUES = {int: (["0", "8", "-3", "2000"], ["x", "", "1.5", "-1.5", "1e3", "-1_0"]),
          DegreeSequence.parse: (["2,1,1", "1,1", "3,3,3,3"], ["1,x", "-1,2", "-1", " 1 , 1"]),
          None: (["n=8,sigma=16,c1=4,c2=1", "n=6,c1=5,c2=1", "1/2", "0"], ["-1", "x", "-x"])}
NOISE = ["--", "-", "-h", "--help", "--h", "--bogus", "--json", "extra", "-x", "--=1"]


@st.composite
def table_argv(draw):
    """An argv shaped by ``COMMANDS``: --json or a prefix of it, then each
    argument of the subcommand zero to two times, options by full name or by
    a prefix, as ``--opt value`` or ``--opt=value``, in any order.  Most
    hold a refused value, an ambiguous prefix, a missing argument or noise."""
    top = draw(st.sampled_from([[]] * 4 + [["--json"]] * 4 + [
        ["--j"], ["--jso", "--json"], ["-h"], ["-"], ["--"], ["--jsonx"], ["--json=1"]]))
    name = draw(st.sampled_from([*cli.COMMANDS, "chec"]))
    chunks = []
    for key, keywords in cli.COMMANDS.get(name, (None, None, {}))[2].items():
        for _ in range(draw(st.sampled_from([1] * 12 + [0, 2]))):
            good, bad = VALUES[keywords.get("type")]
            good = list(keywords.get("choices", good))
            value = draw(st.sampled_from(good * 10 + bad + ["phi_X"]))
            if key[0] != "-":
                chunks.append([value])
                continue
            spelt = key[:draw(st.sampled_from([len(key)] * 4 + list(range(3, len(key)))))]
            if keywords.get("action"):
                chunks.append([spelt + draw(st.sampled_from([""] * 10 + ["=1"]))])
            elif draw(st.booleans()):
                chunks.append([spelt + "=" + value])
            else:
                chunks.append([spelt, value])
    chunks += [[noise] for noise in draw(st.sampled_from([[]] * 20 + [[n] for n in NOISE]))]
    return top + [name] + [arg for chunk in draw(st.permutations(chunks)) for arg in chunk]


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` gives, or the exit code or domain error it
    ends with, with what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        except DegseqError as exc:
            result = (type(exc).__name__, str(exc))
    return result, out.getvalue(), err.getvalue()


# One argv per argument shape the benchmark's workloads send.
WORKLOAD_ARGV = [
    "--json sweep --n-min 8 --n-max 8", "--json sweep --n-min 9 --n-max 9 --with-sigma",
    "--json region --n 30 --c1 20 --c2 14", "--json region n=100,sigma=260,c1=40,c2=1",
    "--json check 9,7,7,5,3,1", "--json check 9,7,7,5,3,1 --tv", "--json count 3,3,2,2,2",
    "--json pmeasure 2,2,2", "--json family-bounds 1,1,1,1", "--json staircase-family 5",
    "--json tyshkevich 3,2,2,1 2,1,1 --verify", "--json split-witness --n 12 --c1 9 --c2 3",
    "--json nonstab-witness --n 6 --n-prime 8 --c1 5 --c2 0 --verify",
    "--json enumerate 3,3,2,2,2 --limit 120",
    "--json mcmc 3,3,2,2,2 --steps 2500 --seed 4023190 --burn-in 0",
]


class TestParser:
    def test_built_once_and_not_at_import(self):
        code = ("import degseq.cli as c; print(c.build_parser.cache_info().currsize); "
                "c.main(['--json', 'count', '1,1']); print(c.build_parser.cache_info().currsize)")
        done = run_fresh("-c", code)
        lines = done.stdout.splitlines()
        assert lines[0] == lines[-1] == "0" and len(lines) == 3, done.stderr
        assert build_parser() is build_parser()

    @given(table_argv())
    @settings(max_examples=400, deadline=None)
    def test_table_reader_agrees_with_argparse(self, argv):
        # main reads argv with argparse wherever the table reader declines, so
        # both accept with equal namespaces, or both end alike.
        parsed = cli._parse(argv)
        reference = parse_outcome(build_parser().parse_args, argv)
        assert parsed is None or reference == (vars(parsed), "", "")

    @pytest.mark.parametrize("argv", [argv for argv, _, _ in GOLDEN_STDOUT] + WORKLOAD_ARGV + [
        "--j nonstab-witness --n 6 --n-p 8 --c1 5 --c2 0", "enumerate 1,1,1,1 --limit=2",
        "enumerate 1,1,1,1 --limit -1", "--json mcmc 2,2,2 --burn-in=3 --se 1 --st 9 --steps 5",
        "staircase-family -2", "region --epsilon 1/2 --pred phi_eps n=8,sigma=20,c1=4,c2=2",
        "region --n 6 --c1 5 --c2 1", "tyshkevich --verify 2,1,1 1,1"])
    def test_literal_argv_take_the_table(self, argv):
        parsed = cli._parse(argv.split())
        assert parsed is not None
        assert vars(parsed) == vars(build_parser().parse_args(argv.split()))

    @pytest.mark.parametrize("argv", [
        "-h", "--help", "check --help", "count 1,1 --h", "check", "bogus 1,1", "check 1,1 2,2",
        "check 1,1 --", "check -- 1,1", "check 1,1 --json", "--json=1 check 1,1", "- check 1,1",
        "check --tv=1 1,1", "enumerate 1,1 --limit", "enumerate 1,1 --limit x",
        "enumerate 1,1 --limit -1_0", "leg --c 1 --n 8 --sigma 16 --c2 1",
        "region --predicate phi_X", "check 1,x", "count -1,2"])
    def test_everything_else_goes_to_argparse(self, argv):
        assert cli._parse(argv.split()) is None

    @given(st.one_of(st.text(), st.text().map("-".__add__),
                     st.from_regex(r"-\d+", fullmatch=True)))
    @example("-٣")
    @example("-")
    @example("")
    @example("--json")
    @example("-1a")
    @example("-12")
    @example("-1\n")
    @example("-²")  # a digit, but not a decimal digit
    def test_is_value_agrees_with_the_regex(self, arg):
        # The regex it replaced: an argument not led by "-", or "-" and one or
        # more Unicode decimal digits (category Nd) to the end.
        assert cli._is_value(arg) is bool(re.compile(r"(?!-)|-\d+\Z").match(arg))

    def test_predicate_choices_are_the_library_names(self, capsys):
        for name in PREDICATE_NAMES:
            assert build_parser().parse_args(["region", "--predicate", name]).predicate == name
        with pytest.raises(SystemExit) as exc:
            main(["region", "--n", "4", "--c1", "2", "--c2", "1", "--predicate", "phi_X"])
        assert exc.value.code == 2
