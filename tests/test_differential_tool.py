"""`tests/differential.py`'s comparison with a dump written by another tree,
on two small sections in place of the differential set."""

import hashlib

import differential

SECTIONS = (
    ("solver", lambda: iter([("s1 g0 prob-reach", "values=0x1.0p+0"), ("s1 g0 bounded", "0x0.0p+0")])),
    ("cli", lambda: iter([("cli 0", "exit=0"), ("cli 0 stdout", "'T,x\\n0,1\\n'")])),
)
LINES = "s1 g0 prob-reach values=0x1.0p+0\ns1 g0 bounded 0x0.0p+0\ncli 0 exit=0\ncli 0 stdout 'T,x\\n0,1\\n'\n"


def _main(monkeypatch, tmp_path, ref=None):
    monkeypatch.setattr(differential, "SECTIONS", SECTIONS)
    argv = ["differential.py", str(tmp_path / "out.txt")]
    if ref is not None:
        (tmp_path / "ref.txt").write_text(ref)
        argv.append(str(tmp_path / "ref.txt"))
    return differential.main(argv)


def test_a_dump_writes_key_and_outcome_per_line_with_the_md5s(monkeypatch, tmp_path, capsys):
    assert _main(monkeypatch, tmp_path) == 0
    assert (tmp_path / "out.txt").read_text() == LINES
    solver, cli = LINES[:LINES.index("cli 0")], LINES[LINES.index("cli 0"):]
    assert capsys.readouterr().out == (
        f"solver: 2 records, md5 {hashlib.md5(solver.encode()).hexdigest()}\n"
        f"cli: 2 records, md5 {hashlib.md5(cli.encode()).hexdigest()}\n"
        f"4 records, md5 {hashlib.md5(LINES.encode()).hexdigest()}\n"
    )


def test_an_identical_reference_exits_0(monkeypatch, tmp_path, capsys):
    assert _main(monkeypatch, tmp_path, LINES) == 0
    assert capsys.readouterr().out.endswith(f"identical to {tmp_path / 'ref.txt'}\n")


def test_the_first_differing_record_is_printed_with_its_section_and_key(monkeypatch, tmp_path, capsys):
    ref = LINES.replace("exit=0", "exit=1").replace("0,1", "0,0")
    assert _main(monkeypatch, tmp_path, ref) == 1
    assert (tmp_path / "out.txt").read_text() == LINES  # the dump is written whole
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "first difference: section cli, record 3, key 'cli 0', column 11",
        "  OUT: 'cli 0 exit=0\\n'",
        "  REF: 'cli 0 exit=1\\n'",
    ]


def test_a_reference_with_more_or_fewer_records_differs(monkeypatch, tmp_path, capsys):
    assert _main(monkeypatch, tmp_path, LINES + "cli 1 exit=0\n") == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "first difference: section cli, record 5, key '(past the end of OUT)', column 0",
        "  OUT: (no record)",
        "  REF: 'cli 1 exit=0\\n'",
    ]
    assert _main(monkeypatch, tmp_path, LINES[:LINES.index("cli 0 stdout")]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "first difference: section cli, record 4, key 'cli 0 stdout', column 0",
        "  OUT: \"cli 0 stdout 'T,x\\\\n0,1\\\\n'\\n\"",
        "  REF: (no record)",
    ]
