"""PEP 517/660 build backend that needs nothing outside the standard library.

`pyproject.toml` names this module through `backend-path`, so `pip install .`
and `pip install -e .` work offline with no build dependencies. The project's
name and scripts are read from `pyproject.toml`'s `[project]` table, and its
version from `__version__` in the package's `__init__.py`; the backend repeats
none of them. It only reads the checkout; every archive goes to the directory
the installer passes in.
"""

import base64
import csv
import gzip
import hashlib
import io
import re
import tarfile
import tomllib
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "hilcheck"
TAG = "py3-none-any"
# fixed timestamps keep the archives byte-identical across builds
ZIP_DATE = (1980, 1, 1, 0, 0, 0)


def _project():
    """`[project]` with its dynamic version filled in from the package."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    init = (SRC / PACKAGE / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'^__version__ = "([^"]+)"$', init, re.MULTILINE)
    return {**project, "version": version.group(1)}


def _base_name(project):
    """`<name>-<version>` with the name escaped as wheel file names need."""
    name = re.sub(r"[-_.]+", "_", project["name"]).lower()
    return f"{name}-{project['version']}"


def _metadata(project):
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {project['name']}",
        f"Version: {project['version']}",
        f"Summary: {project['description']}",
        f"Requires-Python: {project['requires-python']}",
    ]
    lines += [f"Requires-Dist: {req}" for req in project.get("dependencies", [])]
    for extra, reqs in project.get("optional-dependencies", {}).items():
        lines.append(f"Provides-Extra: {extra}")
        lines += [f'Requires-Dist: {req}; extra == "{extra}"' for req in reqs]
    return "\n".join(lines) + "\n"


def _package_files():
    """(path in the wheel, bytes) for every module of the package."""
    return [(path.relative_to(SRC).as_posix(), path.read_bytes())
            for path in sorted((SRC / PACKAGE).rglob("*.py"))]


def _sha256(data):
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
    return "sha256=" + digest.rstrip(b"=").decode()


def _write_wheel(wheel_directory, files):
    project = _project()
    base = _base_name(project)
    dist_info = f"{base}.dist-info"
    scripts = "".join(f"{name} = {target}\n"
                      for name, target in project.get("scripts", {}).items())
    files = files + [
        (f"{dist_info}/METADATA", _metadata(project).encode()),
        (f"{dist_info}/WHEEL",
         f"Wheel-Version: 1.0\nGenerator: {PACKAGE} build_backend\n"
         f"Root-Is-Purelib: true\nTag: {TAG}\n".encode()),
        (f"{dist_info}/entry_points.txt",
         f"[console_scripts]\n{scripts}".encode()),
    ]
    record = io.StringIO()
    writer = csv.writer(record, lineterminator="\n")
    writer.writerows((path, _sha256(data), len(data)) for path, data in files)
    writer.writerow((f"{dist_info}/RECORD", "", ""))
    files.append((f"{dist_info}/RECORD", record.getvalue().encode()))

    wheel_name = f"{base}-{TAG}.whl"
    with zipfile.ZipFile(Path(wheel_directory) / wheel_name, "w") as wheel:
        for path, data in files:
            info = zipfile.ZipInfo(path, ZIP_DATE)
            info.external_attr = 0o644 << 16
            wheel.writestr(info, data, zipfile.ZIP_DEFLATED)
    return wheel_name


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    return _write_wheel(wheel_directory, _package_files())


def build_editable(wheel_directory, config_settings=None,
                   metadata_directory=None):
    """A wheel whose only module is a `.pth` file that puts `src` on the path."""
    pth = f"__editable__.{_base_name(_project())}.pth"
    return _write_wheel(wheel_directory, [(pth, f"{SRC}\n".encode())])


def build_sdist(sdist_directory, config_settings=None):
    project = _project()
    base = _base_name(project)
    members = [(name, (ROOT / name).read_bytes())
               for name in ("pyproject.toml", "README.md",
                            Path(__file__).resolve().relative_to(ROOT).as_posix())]
    members += [(f"src/{path}", data) for path, data in _package_files()]
    members.append(("PKG-INFO", _metadata(project).encode()))

    sdist_name = f"{base}.tar.gz"
    with open(Path(sdist_directory) / sdist_name, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz, \
            tarfile.open(fileobj=gz, mode="w", format=tarfile.PAX_FORMAT) as tar:
        for name, data in members:
            info = tarfile.TarInfo(f"{base}/{name}")
            info.size = len(data)
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(data))
    return sdist_name
