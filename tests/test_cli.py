import json
import time

import pytest

from maxgrowth import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_gk_csv(self, capsys):
        code, out, err = run(
            ["table", "--family", "gk", "--k", "2", "--nmax", "5"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,count,case,method"
        assert "2,3,two,formula" in lines
        assert "3,4,odd_prime,formula" in lines
        assert "4,0,not_prime,recursion" in lines
        assert "5,6,odd_prime,recursion" in lines

    def test_hk_includes_expected_rows(self, capsys):
        code, out, _ = run(
            ["table", "--family", "hk", "--k", "1", "--nmax", "9"], capsys
        )
        assert code == 0
        assert "3,7,p_divides_k_plus_2,formula" in out.splitlines()
        assert "4,4,p_square_coprime,formula" in out.splitlines()
        assert "9,0,otherwise,formula" in out.splitlines()

    def test_oracle_method_agrees(self, capsys):
        code, out, _ = run(
            [
                "table", "--family", "hk", "--k", "2", "--nmax", "4",
                "--methods", "formula,oracle",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        by_n = {}
        for n, count, case, method in rows:
            by_n.setdefault(n, set()).add(count)
        assert all(len(counts) == 1 for counts in by_n.values())

    def test_jsonl_format(self, capsys):
        code, out, _ = run(
            ["table", "--family", "gk", "--k", "3", "--nmax", "3", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        objs = [json.loads(line) for line in out.splitlines()]
        assert objs[0] == {"n": 2, "count": 7, "case": "two", "method": "formula"}
        assert all(set(o) == {"n", "count", "case", "method"} for o in objs)

    def test_byte_stable(self, capsys):
        args = ["table", "--family", "hk", "--k", "-3", "--nmax", "12"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_recursion", lambda family, k, n: 999)
        code, out, err = run(
            ["table", "--family", "gk", "--k", "2", "--nmax", "3"], capsys
        )
        assert code == 1
        assert "disagreement" in err

    def test_usage_errors(self, capsys):
        code, _, err = run(["table", "--family", "gk", "--k", "0", "--nmax", "5"], capsys)
        assert code == 2
        code, _, _ = run(["table", "--family", "gk", "--k", "2", "--nmax", "1"], capsys)
        assert code == 2
        code, _, _ = run(
            ["table", "--family", "gk", "--k", "2", "--nmax", "5", "--methods", "magic"],
            capsys,
        )
        assert code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--family", "zz", "--k", "2", "--nmax", "5"])
        assert exc.value.code == 2

    def test_budget_exhaustion_skips_oracle_rows(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXGROWTH_NODE_BUDGET", "50")
        code, out, err = run(
            [
                "table", "--family", "hk", "--k", "1", "--nmax", "6",
                "--methods", "formula,oracle",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,count,case,method"
        assert [line for line in lines if line.endswith(",oracle")] == ["2,3,p_coprime,oracle"]
        assert [line.split(",")[0] for line in lines if line.endswith(",formula")] == [
            "2", "3", "4", "5", "6",
        ]
        skipped = err.splitlines()
        assert [line.split()[0] for line in skipped] == ["n=3", "n=4", "n=5", "n=6"]
        assert all("oracle=SKIPPED" in line and "budget" in line for line in skipped)

    def test_k_beyond_int64(self, capsys):
        for k in (2 ** 63, -(2 ** 63), 10 ** 19):
            code, out, err = run(["table", "--family", "hk", f"--k={k}", "--nmax", "5"], capsys)
            assert code == 0 and err == ""
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [row[3] for row in rows] == ["formula", "recursion"] * 4
            assert [row[:3] for row in rows[::2]] == [row[:3] for row in rows[1::2]]
        assert out.splitlines()[3] == "3,7,p_divides_k_plus_2,formula"
        # the oracle still refuses H_k's relator of |k| + 4 letters
        argv = ["table", "--family", "hk", "--k", str(10 ** 19), "--nmax", "5"]
        code, out, err = run(argv + ["--methods", "oracle"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the oracle takes relators") and len(err.splitlines()) == 1

    def test_relator_beyond_oracle_cap_rejected(self, capsys):
        # H_997 has a relator of 1001 letters
        argv = ["table", "--family", "hk", "--k", "997", "--nmax", "3"]
        code, out, err = run(argv + ["--methods", "formula,oracle"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        code, out, _ = run(argv + ["--methods", "formula,recursion"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2

    def test_generators_beyond_oracle_cap_rejected(self, capsys):
        # G_7 has 7 generators; the oracle takes 6
        argv = ["table", "--family", "gk", "--k", "7", "--nmax", "3"]
        code, out, err = run(argv + ["--methods", "formula,oracle"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        code, out, _ = run(argv + ["--methods", "formula,recursion"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2

    def test_hk_recursion_past_p_1009(self, capsys):
        # the H_k lines come from a quadratic mod p, so no prime stops the run
        code, out, err = run(["table", "--family", "hk", "--k", "1", "--nmax", "1010"], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1 + 2 * 1009
        assert lines[-4:] == [
            "1009,1010,p_coprime,formula",
            "1009,1010,p_coprime,recursion",
            "1010,0,otherwise,formula",
            "1010,0,otherwise,recursion",
        ]


class TestVerify:
    def test_three_way_pass(self, capsys):
        code, out, _ = run(
            [
                "verify", "--family", "gk", "--k", "1..3", "--nmax", "20",
                "--oracle-nmax", "5",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("summary: cells=57 pass=57 fail=0")
        assert "k=2 n=5 formula=6 recursion=6 oracle=6 PASS" in lines

    def test_formula_recursion_only(self, capsys):
        code, out, _ = run(
            ["verify", "--family", "hk", "--k", "2..2", "--nmax", "50"], capsys
        )
        assert code == 0
        assert "oracle" not in out.splitlines()[0]

    def test_single_k_spelling(self, capsys):
        code, out, _ = run(
            ["verify", "--family", "hk", "--k", "-4", "--nmax", "6"], capsys
        )
        assert code == 0
        assert all(line.startswith(("k=-4", "summary")) for line in out.splitlines())

    def test_negative_k_range(self, capsys):
        code, out, _ = run(
            [
                "verify", "--family", "hk", "--k", "-4..6", "--nmax", "20",
                "--oracle-nmax", "3",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("k=-4 ")
        assert lines[-1] == "summary: cells=209 pass=209 fail=0 oracle_skipped=0"

    def test_budget_exhaustion_is_skip(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXGROWTH_NODE_BUDGET", "5")
        code, out, _ = run(
            [
                "verify", "--family", "hk", "--k", "2..2", "--nmax", "4",
                "--oracle-nmax", "4",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert any("oracle=SKIPPED" in line for line in lines)
        assert lines[-1].endswith("oracle_skipped=3")

    def test_bad_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXGROWTH_NODE_BUDGET", "lots")
        code, _, err = run(
            ["verify", "--family", "gk", "--k", "2", "--nmax", "4", "--oracle-nmax", "2"],
            capsys,
        )
        assert code == 2
        assert "MAXGROWTH_NODE_BUDGET" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_env_budget_below_one(self, budget, capsys, monkeypatch):
        # a budget below one node would skip every oracle cell and exit 0
        monkeypatch.setenv("MAXGROWTH_NODE_BUDGET", budget)
        code, out, err = run(
            ["verify", "--family", "gk", "--k", "2", "--nmax", "4", "--oracle-nmax", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"MAXGROWTH_NODE_BUDGET must be at least 1, got '{budget}'" in err

    def test_failure_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_recursion", lambda family, k, n: -1)
        code, out, _ = run(
            ["verify", "--family", "gk", "--k", "2", "--nmax", "4"], capsys
        )
        assert code == 1
        assert "FAIL" in out

    def test_empty_range_rejected(self, capsys):
        code, _, _ = run(
            ["verify", "--family", "gk", "--k", "5..2", "--nmax", "4"], capsys
        )
        assert code == 2

    def test_hk_recursion_past_p_1009(self, capsys):
        code, out, err = run(["verify", "--family", "hk", "--k", "1", "--nmax", "1010"], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[-3:] == [
            "k=1 n=1009 formula=1010 recursion=1010 PASS",
            "k=1 n=1010 formula=0 recursion=0 PASS",
            "summary: cells=1009 pass=1009 fail=0 oracle_skipped=0",
        ]

    def test_k_beyond_int64(self, capsys):
        for k_arg, cells in (
            (str(10 ** 19), 5),
            (f"{2 ** 63 - 1}..{2 ** 63}", 10),
            (f"-{2 ** 63}..-{2 ** 63 - 1}", 10),
        ):
            code, out, err = run(
                ["verify", "--family", "hk", f"--k={k_arg}", "--nmax", "6"], capsys
            )
            assert code == 0 and err == ""
            lines = out.splitlines()
            assert len(lines) == cells + 1
            assert all(line.endswith(" PASS") for line in lines[:-1])
            assert lines[-1] == f"summary: cells={cells} pass={cells} fail=0 oracle_skipped=0"

    def test_relator_beyond_oracle_cap_rejected(self, capsys):
        # either end of the range may carry the longest relator; no line
        # may be printed before the error
        for k_arg in ("0..997", "-997..0"):
            argv = ["verify", "--family", "hk", f"--k={k_arg}", "--nmax", "3"]
            code, out, err = run(argv + ["--oracle-nmax", "2"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1
        # H_996's relator of 1000 letters is within the cap
        code, out, _ = run(
            ["verify", "--family", "hk", "--k=996", "--nmax", "2", "--oracle-nmax", "2"], capsys
        )
        assert code == 0
        assert out.splitlines()[-1] == "summary: cells=1 pass=1 fail=0 oracle_skipped=0"

    def test_generators_beyond_oracle_cap_rejected(self, capsys):
        # no k=6 line may be printed before G_7 is refused
        argv = ["verify", "--family", "gk", "--k=6..7", "--nmax", "3"]
        code, out, err = run(argv + ["--oracle-nmax", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.splitlines()[-1] == "summary: cells=4 pass=4 fail=0 oracle_skipped=0"

    def test_huge_generator_range_rejected_at_once(self, capsys):
        # the cap is arithmetic on k: no presentation of G_100000 is built
        start = time.monotonic()
        code, out, err = run(
            ["verify", "--family", "gk", "--k=1..100000", "--nmax", "3", "--oracle-nmax", "2"],
            capsys,
        )
        assert time.monotonic() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_oracle_at_index_1100(self, capsys):
        # the oracle search is 1100 levels deep on Z
        code, out, _ = run(
            ["verify", "--family", "gk", "--k", "1", "--nmax", "1100", "--oracle-nmax", "1100"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[-1] == "summary: cells=1099 pass=1099 fail=0 oracle_skipped=0"


class TestTableAgreesWithVerify:
    """``table`` with every method and ``verify`` on the same group and
    nmax report the same counts and skip the oracle at the same n."""

    @staticmethod
    def table_cells(capsys):
        argv = ["table", "--family", "hk", "--k", "3", "--nmax", "12"]
        code, out, err = run(argv + ["--methods", "formula,recursion,oracle"], capsys)
        assert code == 0
        counts = {}
        for line in out.splitlines()[1:]:
            n, count, _, method = line.split(",")
            counts[int(n), method] = int(count)
        skipped = {int(line.split()[0][2:]) for line in err.splitlines()}
        return counts, skipped

    @staticmethod
    def verify_cells(capsys):
        argv = ["verify", "--family", "hk", "--k", "3", "--nmax", "12", "--oracle-nmax", "12"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        counts, skipped = {}, set()
        for line in out.splitlines()[:-1]:
            fields = dict(field.split("=") for field in line.split()[1:-1])
            n = int(fields.pop("n"))
            for method, count in fields.items():
                if count == "SKIPPED":
                    skipped.add(n)
                else:
                    counts[n, method] = int(count)
        return counts, skipped

    @pytest.mark.parametrize("budget, skipped", [(None, set()), ("5000", set(range(8, 13)))])
    def test_same_counts_and_skips(self, budget, skipped, capsys, monkeypatch):
        if budget is not None:
            monkeypatch.setenv("MAXGROWTH_NODE_BUDGET", budget)
        table = self.table_cells(capsys)
        assert table == self.verify_cells(capsys)
        counts, table_skipped = table
        assert table_skipped == skipped
        assert len(counts) == 3 * 11 - len(skipped)


class TestNoniso:
    def test_certificate_text(self, capsys):
        code, out, _ = run(["noniso", "--i", "2", "--j", "3"], capsys)
        assert code == 0
        assert out.strip() == "certificate: p=2 side=minus m_p(H_2)=7 m_p(H_3)=3"

    def test_no_certificate(self, capsys):
        code, out, _ = run(["noniso", "--i", "4", "--j", "4"], capsys)
        assert code == 0
        assert out.strip() == "no certificate from this criterion"

    def test_json(self, capsys):
        code, out, _ = run(
            ["noniso", "--i", "0", "--j", "4", "--format", "json"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["certificate"]["p"] == 3
        assert obj["certificate"]["side"] == "plus"
        code, out, _ = run(
            ["noniso", "--i", "1", "--j", "1", "--format", "json"], capsys
        )
        assert json.loads(out) == {"certificate": None}

    def test_json_bytes(self, capsys):
        code, out, _ = run(["noniso", "--i", "0", "--j", "4", "--format", "json"], capsys)
        assert code == 0
        assert out == (
            '{"certificate": {"i": 0, "j": 4, "p": 3, "side": "plus", '
            '"count_i": 4, "count_j": 7}}\n'
        )

    def test_k_beyond_int64(self, capsys):
        code, out, _ = run(["noniso", "--i", str(2 ** 64 + 2), "--j", "2"], capsys)
        assert code == 0
        assert out.strip() == (
            f"certificate: p=3 side=minus m_p(H_{2 ** 64 + 2})=4 m_p(H_2)=13"
        )

    def test_semiprime_near_10_18(self, capsys):
        # i - 2 = (10^9 + 7)(10^9 + 9): the least witness is 3, on the plus side
        i = 1000000016000000065
        code, out, _ = run(["noniso", "--i", str(i), "--j", "3"], capsys)
        assert code == 0
        assert out.strip() == f"certificate: p=3 side=plus m_p(H_{i})=7 m_p(H_3)=4"

    def test_prime_beyond_miller_rabin_bound_exits_2(self, capsys):
        # i - 2 = 2^89 - 1 is prime, but above MR_BOUND primality is not proven
        i = 2 ** 89 + 1
        code, out, err = run(["noniso", "--i", str(i), "--j", "3"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestMdeg:
    def test_h2(self, capsys):
        code, out, _ = run(
            ["mdeg", "--family", "hk", "--k", "2", "--limit", "10000"], capsys
        )
        assert code == 0
        assert out.startswith("family=hk k=2 exact=2 empirical_slope=2.0000")

    def test_h3_and_g4(self, capsys):
        code, out, _ = run(["mdeg", "--family", "hk", "--k", "3"], capsys)
        assert code == 0 and "exact=1" in out
        code, out, _ = run(["mdeg", "--family", "gk", "--k", "4"], capsys)
        assert code == 0 and "exact=1" in out

    def test_limit_validation(self, capsys):
        code, _, _ = run(["mdeg", "--family", "hk", "--k", "2", "--limit", "50"], capsys)
        assert code == 2

    def test_k_beyond_int64(self, capsys):
        code, out, _ = run(
            ["mdeg", "--family", "hk", "--k", str(10 ** 19), "--limit", "200"], capsys
        )
        assert code == 0
        assert out.startswith(f"family=hk k={10 ** 19} exact=1 ")


class TestRepeatedCalls:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["table", "--family", "gk", "--k", "2", "--nmax", "4"], ["--format", "jsonl"]),
            (["table", "--family", "hk", "--k", "1", "--nmax", "4"], ["--methods", "formula"]),
            (["verify", "--family", "gk", "--k", "2", "--nmax", "4"], ["--oracle-nmax", "4"]),
            (["noniso", "--i", "2", "--j", "3"], ["--format", "json"]),
            (["mdeg", "--family", "hk", "--k", "2"], ["--limit", "200"]),
        ],
    )
    def test_defaults_do_not_leak_between_calls(self, capsys, argv, option):
        # one process, back to back: a plain call after one with an option
        # prints what it printed before that call
        first = run(argv, capsys)
        assert run(argv + option, capsys) != first
        assert run(argv, capsys) == first
