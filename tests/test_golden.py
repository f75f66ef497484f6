"""Byte-for-byte comparison of hunt outcomes, checker reports and cleaning
traces with the committed golden files (regenerate with
tests/make_golden.py)."""

from make_golden import GOLDEN_DIR, golden_files


def test_golden_bytes():
    files = golden_files()
    on_disk = {p.relative_to(GOLDEN_DIR).as_posix()
               for p in GOLDEN_DIR.rglob("*") if p.is_file()}
    assert sorted(on_disk) == sorted(files)
    changed = [rel for rel, text in sorted(files.items())
               if (GOLDEN_DIR / rel).read_text() != text]
    assert not changed, "golden bytes differ: %s" % ", ".join(changed)
