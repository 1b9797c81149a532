"""Golden stdout: a change meant to keep every count and every line of
output pins it here.  Each command's stdout is compared by SHA-256 and
line count against the value recorded before the change; a mismatch
means the output changed, and a deliberate change records new values.
"""

import hashlib

import pytest

from maxgrowth import cli

GOLDEN = [
    (
        ["verify", "--family", "hk", "--k=-6..6", "--nmax", "300"],
        "a6f2e4ffbeae8575088c7a8fc5111eebd905e1dc8e8ea932bf1193373b0248c1",
        3888,
    ),
    (
        ["verify", "--family", "gk", "--k=1..6", "--nmax", "300"],
        "07bba152c75403adbffc4e5abc8d2221d9cb04efeaa43203fdf97fd3f91b83ab",
        1795,
    ),
    (
        ["verify", "--family", "hk", "--k=-3..3", "--nmax", "12", "--oracle-nmax", "12"],
        "2f36cb08e1980777de043eec2e9bf81997cd0fbea975d2eb6824c09584faa778",
        78,
    ),
    (
        ["verify", "--family", "gk", "--k=1..4", "--nmax", "12", "--oracle-nmax", "12"],
        "68dcc945f439a203c96a43a347f798f76dbe75e807cd9532efab62ff85a92dd3",
        45,
    ),
    (
        [
            "table", "--family", "hk", "--k=-2", "--nmax", "12",
            "--methods", "formula,recursion,oracle", "--format", "jsonl",
        ],
        "1d0b026b323258367494c3c4f125dcf1b7d335f17fbdf1e7206205ac5417e6a0",
        33,
    ),
    (
        [
            "table", "--family", "gk", "--k", "3", "--nmax", "13",
            "--methods", "formula,recursion,oracle",
        ],
        "f63cd6ba3f287145b82f7a78452fa4a39dbec895b53cfbe7dadebc55779d94bb",
        37,
    ),
    (
        ["mdeg", "--family", "hk", "--k", "2", "--limit", "1000"],
        "a6d16ad729110c1d91ed0fd34c158827311215cb993bc83c8c827b2f5677f75f",
        1,
    ),
]


@pytest.mark.parametrize("argv,sha256,lines", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_unchanged(capsys, argv, sha256, lines):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == (sha256, lines)
