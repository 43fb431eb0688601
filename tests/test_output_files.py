"""Output files are written as new inodes through ``series.open_new``.

Overwriting a file by truncation or by a rename over it makes ext4 (default
``auto_da_alloc``) flush it at close; unlinking first and creating a new file
does not.  These tests pin the write policy without timing anything.
"""

import ast
import os
import stat
from pathlib import Path

import pytest

from driftbench import series
from driftbench.cli import main
from driftbench.series import open_new

SRC = Path(series.__file__).parent


def _write(path, text):
    with open_new(path) as fh:
        fh.write(text)


class TestOpenNew:
    def test_overwrite_makes_a_new_inode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old contents\n")
        # holding the old file open keeps its inode number from being reused
        with open(path) as old:
            ino = os.stat(path).st_ino
            _write(path, "new\n")
            assert os.stat(path).st_ino != ino
            assert old.read() == "old contents\n"   # the old inode is untouched

    def test_bytes_equal_a_fresh_write(self, tmp_path):
        text = "a,b\r\nc,d\n" * 50
        fresh, over = tmp_path / "fresh.csv", tmp_path / "over.csv"
        over.write_text("x" * 4096)
        _write(fresh, text)
        _write(over, text)
        assert over.read_bytes() == fresh.read_bytes()
        _write(over, "short\n")   # no stale tail from the longer file
        assert over.read_bytes() == b"short\n"

    def test_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        link.symlink_to(target)
        _write(link, "new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        target.unlink()   # a dangling link creates its target
        _write(link, "again\n")
        assert link.is_symlink() and target.read_text() == "again\n"

    def test_fifo_stays_a_fifo(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write(fifo, "through the pipe\n")
            assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
            assert os.read(reader, 100) == b"through the pipe\n"
        finally:
            os.close(reader)


class TestSymlinkedOutputs:
    def _linked(self, tmp_path, name):
        target, link = tmp_path / f"{name}-target", tmp_path / name
        target.write_text("stale contents that are longer than nothing\n" * 10)
        link.symlink_to(target)
        return target, link

    def test_morse_check_out(self, capsys, tmp_path):
        target, link = self._linked(tmp_path, "margins.csv")
        code = main(["morse-check", "--system", "quasiconvex", "--eps", "1e-4",
                     "--gamma", "0.9", "--tau", "2", "--L-max", "2", "--grid", "9",
                     "--out", str(link)])
        capsys.readouterr()
        assert code == 0 and link.is_symlink()
        assert target.read_text().startswith("normals,L_min,margin")

    def test_drift_out(self, capsys, tmp_path):
        target, link = self._linked(tmp_path, "traj.csv")
        code = main(["drift", "--system", "pendulum", "--eps", "1e-3", "--seed", "7",
                     "--threshold", "0.5", "--t-cap", "1", "--out", str(link)])
        capsys.readouterr()
        assert code == 0 and link.is_symlink()
        assert target.read_text().startswith("# driftbench trajectory")


def _unguarded_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """Calls that truncate or replace a file outside ``open_new``: ``open``
    with a "w" or non-literal mode, ``write_text``/``write_bytes`` and
    ``os.replace``."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "open_new":
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                pos = 1 if isinstance(func, ast.Name) else 0   # open(p, mode), Path.open(mode)
                mode = node.args[pos] if len(node.args) > pos else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and isinstance(mode.value, str)
                                             and "w" not in mode.value):
                    found.append((node.lineno, ast.unparse(node)))
            elif name in ("write_text", "write_bytes", "replace") and (
                    name != "replace" or ast.unparse(func) == "os.replace"):
                found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_guard_catches_each_overwrite():
    code = (
        "import os\n"
        "def f(p, m):\n"
        "    open(p, 'w'); open(p, mode='w'); open(p, m); Path(p).open('w')\n"
        "    Path(p).write_text(''); Path(p).write_bytes(b''); os.replace(p, p)\n"
        "    open(p); open(p, 'a'); s.replace('a', 'b')\n"
        "def open_new(p):\n"
        "    return open(p, 'w')\n"
    )
    assert len(_unguarded_writes(ast.parse(code))) == 7


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_src_write_goes_through_open_new(path):
    assert _unguarded_writes(ast.parse(path.read_text())) == []
