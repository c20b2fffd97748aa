"""The in-tree build backend: wheel contents, RECORD hashes, editable and
source builds."""

import base64
import csv
import hashlib
import importlib.util
import tarfile
import zipfile
from pathlib import Path

import hilcheck

CHECKOUT = Path(__file__).resolve().parents[1]


def load_backend(root):
    path = root / "tools" / "build_backend.py"
    spec = importlib.util.spec_from_file_location("build_backend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_wheel(path):
    with zipfile.ZipFile(path) as wheel:
        return {name: wheel.read(name) for name in wheel.namelist()}


def check_record(files):
    """Every file but RECORD is listed with its sha256 and size."""
    [record] = [name for name in files if name.endswith(".dist-info/RECORD")]
    rows = {row[0]: row[1:] for row in
            csv.reader(files[record].decode().splitlines())}
    assert rows.pop(record) == ["", ""]
    assert rows.keys() == files.keys() - {record}
    for name, (digest, size) in rows.items():
        data = files[name]
        expected = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
        assert digest == "sha256=" + expected.rstrip(b"=").decode(), name
        assert int(size) == len(data), name


def test_wheel_holds_every_module_and_the_console_script(tmp_path):
    backend = load_backend(CHECKOUT)
    files = read_wheel(tmp_path / backend.build_wheel(str(tmp_path)))
    check_record(files)
    src = CHECKOUT / "src"
    modules = {p.relative_to(src).as_posix()
               for p in (src / "hilcheck").rglob("*.py")}
    assert {n for n in files if ".dist-info/" not in n} == modules
    [entry_points] = [n for n in files if n.endswith("/entry_points.txt")]
    assert "hil-check = hilcheck.cli:main" in files[entry_points].decode()
    [metadata] = [n for n in files if n.endswith(".dist-info/METADATA")]
    assert f"\nVersion: {hilcheck.__version__}\n" in files[metadata].decode()


def test_editable_wheel_is_one_pth_naming_src(tmp_path):
    backend = load_backend(CHECKOUT)
    files = read_wheel(tmp_path / backend.build_editable(str(tmp_path)))
    check_record(files)
    [pth] = [n for n in files if ".dist-info/" not in n]
    assert pth.endswith(".pth")
    assert files[pth].decode() == f"{CHECKOUT / 'src'}\n"


def test_sdist_rebuilds_the_same_wheel(tmp_path):
    backend = load_backend(CHECKOUT)
    sdist = tmp_path / backend.build_sdist(str(tmp_path))
    with tarfile.open(sdist) as tar:
        for member in tar.getmembers():
            dest = tmp_path / "unpacked" / member.name
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(tar.extractfile(member).read())
    [unpacked] = (tmp_path / "unpacked").iterdir()

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    from_checkout = tmp_path / "a" / backend.build_wheel(str(tmp_path / "a"))
    from_sdist = tmp_path / "b" / load_backend(unpacked).build_wheel(
        str(tmp_path / "b"))
    assert from_sdist.name == from_checkout.name
    assert from_sdist.read_bytes() == from_checkout.read_bytes()
