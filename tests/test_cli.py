import json

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

    def test_k_beyond_int64_rejected(self, capsys):
        for methods in ("formula,recursion", "oracle"):
            argv = ["table", "--family", "hk", "--k", str(10 ** 19), "--nmax", "5"]
            code, out, err = run(argv + ["--methods", methods], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1
        # the closed forms alone take any k
        code, out, _ = run(
            ["table", "--family", "hk", "--k", str(10 ** 19), "--nmax", "5", "--methods", "formula"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[2] == "3,7,p_divides_k_plus_2,formula"


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

    def test_k_beyond_int64_rejected(self, capsys):
        # one good end is not enough: no line may be printed before the error
        for k_arg in (str(10 ** 19), f"{2 ** 63 - 1}..{2 ** 63}", f"-{2 ** 63}..-{2 ** 63 - 1}"):
            code, out, err = run(
                ["verify", "--family", "hk", f"--k={k_arg}", "--nmax", "5"], capsys
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1


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

    def test_k_beyond_int64(self, capsys):
        code, out, _ = run(["noniso", "--i", str(2 ** 64 + 2), "--j", "2"], capsys)
        assert code == 0
        assert out.strip() == (
            f"certificate: p=3 side=minus m_p(H_{2 ** 64 + 2})=4 m_p(H_2)=13"
        )


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
