#!/usr/bin/env python3
"""lsi_lint: the repo's one static checker.

It holds the single-line rules clang-tidy cannot express and the
structural rules that relate files to each other: the subsystem
layering DAG, each mutex and its rank declaration, and the rank macros
scattered through the tree against the one table that defines them.
It is the static half of the lock-order gate; src/dbg/lock_tracker.h
(LSI_DEADLOCK_DETECT=1) is the runtime half.

Rules (scoped to library code under src/ unless noted):

  no-throw          `throw` across the public API boundary. Library entry
                    points report failure through Status/Result; exceptions
                    are reserved for the lsi::par region internals, which
                    catch and rethrow on the calling thread.
  no-raw-random     rand()/srand()/std::random_device outside common/rng.
                    All randomness flows through lsi::Rng so results are
                    reproducible from a seed (the paper's experiments and
                    the determinism tests depend on it).
  no-raw-thread     std::thread outside src/par. Long-lived service threads
                    (serve) are explicitly allowlisted; data-parallel work
                    must go through lsi::par so LSI_THREADS and the
                    bit-identical-results contract hold.
  no-raw-mutex      std::mutex / std::lock_guard / std::unique_lock /
                    std::condition_variable outside common/mutex.h. Raw
                    standard types carry no capability attributes, which
                    blinds clang -Wthread-safety; guard state with
                    lsi::Mutex + LSI_GUARDED_BY instead.
  no-stdio          printf/cout/cerr-style output in library code (tools/
                    and tests are front-ends and exempt). Diagnostics go
                    through LSI_LOG (common/logging.h); snprintf into a
                    caller buffer is formatting, not output, and is fine.
  no-raw-intrinsics SIMD intrinsics (<immintrin.h>/<arm_neon.h>, _mm*/
                    __m256*/float64x2_t/v*_f64) outside src/linalg/simd/.
                    Only simd_avx2.cc is compiled with -mavx2, so an
                    intrinsic anywhere else either fails to build or —
                    worse — executes unguarded on hosts without the
                    instruction set. All vector code goes behind the
                    lsi::linalg::simd dispatch layer. Scoped to src/ and
                    tools/.
  include-guard     Headers open with `#ifndef LSI_<PATH>_H_` matching
                    their path (src/core/engine.h -> LSI_CORE_ENGINE_H_).
  fault-point       LSI_FAULT_POINT takes a single string literal matching
                    [a-z0-9_.]+ (so every point is addressable from an
                    LSI_FAULT spec), stays on one line (so this scan can
                    see it), and each name has exactly one call site across
                    src/ + tools/ (duplicate registration of one name is a
                    programming error in the registry). src/common/fault.h
                    defines the macro and is exempt; tests may reuse names
                    deliberately and are not scanned.
  route-fault-point Every HTTP route dispatched in src/serve or
                    src/shard (a literal `path == "/x"` comparison) must
                    declare a fault point named `serve.<x>.*` /
                    `shard.<x>.*`, so the fault-torture CI job can
                    exercise its failure path. serve routes that predate
                    the fault registry (healthz, metrics, statusz,
                    query, related) are grandfathered; every route added
                    since — and every shard router route, with no
                    grandfathering — ships with its kill switch.
  layering          The subsystem dependency DAG. Each src/<sub>/ may
                    include headers only from the subsystems listed in
                    ALLOWED_DEPS (dbg is the bottom layer, shard the
                    top). A file in a subsystem missing from the table
                    is itself a finding, so the DAG cannot silently
                    grow untracked nodes.
  mutex-rank        Every `Mutex foo_...;` declaration (one line or
                    several) must construct with LSI_LOCK_RANK(...) so
                    the runtime detector knows its class. Unranked
                    mutexes are invisible to deadlock detection.
  mutex-guard       Every declared Mutex must have at least one
                    LSI_GUARDED_BY(<name>) / LSI_PT_GUARDED_BY(<name>)
                    user in the same file — a mutex guarding nothing
                    the annotations can see is either dead or hiding
                    unannotated state from clang -Wthread-safety.
  rank-table        LSI_LOCK_RANK takes a string literal name matching
                    [a-z0-9_.]+ and a lock_rank::k* constant defined in
                    src/common/lock_ranks.h — numeric-literal ranks
                    would bypass the one table the runtime detector's
                    reports point people at. No two constants in that
                    table may share a value: the runtime rule is strict
                    (ranks must strictly increase), and distinct ranks
                    are what let it catch every lock-order cycle.
  rank-unique       Each lock-class name is declared at exactly one
                    site, so a name in a violation report points at one
                    mutex.
  compile-coverage  With --compile-commands: every src/**.cc must
                    appear as a translation unit in the exported
                    compile_commands.json. A source file CMake does not
                    compile is invisible to clang -Wthread-safety,
                    clang-tidy, and the thread-safety CI gate.
                    Platform-conditional TUs (the SIMD backends) are
                    allowlisted.

Findings print one per line as `path:line: rule: message`, or as a JSON
array with --json. Exit status: 0 clean, 1 findings, 2 usage error.

Suppressions: an allowlist file (default tools/lint_allowlist.txt) with
`rule path-prefix` lines; `#` starts a comment. On a full-tree run every
entry must match at least one finding, so stale entries fail the run
instead of rotting. compile-coverage entries are exempt: which SIMD
backend compiles depends on the build host's architecture.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# (rule, compiled pattern, message). Patterns are matched per physical
# line after comment stripping.
LINE_RULES = [
    (
        "no-throw",
        re.compile(r"(?<![\w.])throw\b"),
        "library code must report errors via Status/Result, not exceptions",
    ),
    (
        "no-raw-random",
        re.compile(r"(?<![\w.])(std::random_device|srand\s*\(|rand\s*\(\))"),
        "use lsi::Rng: unseeded randomness breaks reproducibility",
    ),
    (
        "no-raw-thread",
        re.compile(r"\bstd::thread\b"),
        "spawn work through lsi::par, not raw std::thread",
    ),
    (
        "no-raw-mutex",
        re.compile(
            r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"lock_guard|unique_lock|scoped_lock|condition_variable)\b"
        ),
        "use lsi::Mutex/MutexLock/CondVar (common/mutex.h) so "
        "clang -Wthread-safety can track the capability",
    ),
    (
        "no-stdio",
        re.compile(
            r"(\bstd::(cout|cerr)\b|(?<![\w:])(?:std::)?"
            r"(?:printf|fprintf|puts|fputs|putchar)\s*\()"
        ),
        "library code logs through LSI_LOG, not stdout/stderr",
    ),
    (
        "no-raw-intrinsics",
        re.compile(
            r"(#\s*include\s*<(?:immintrin|x86intrin|arm_neon|emmintrin|"
            r"xmmintrin|smmintrin|tmmintrin|nmmintrin|avx\w*intrin)\.h>"
            r"|\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
            r"|\bfloat64x[12]_t\b"
            r"|\bv(?:fma|mla|add|sub|mul|ld1|st1|dup|mov|get|set|addv)"
            r"\w*_f64\b)"
        ),
        "raw SIMD intrinsics live in src/linalg/simd/ only; call the "
        "lsi::linalg::simd dispatch layer instead",
    ),
]

# Rule -> predicate(relative posix path) deciding whether a line rule
# applies to a file at all (before allowlist suppression).
def _in_src(path: str) -> bool:
    return path.startswith("src/")


RULE_SCOPE = {
    "no-throw": _in_src,
    "no-raw-random": lambda p: _in_src(p) and not p.startswith("src/common/rng"),
    "no-raw-thread": lambda p: _in_src(p) and not p.startswith("src/par/"),
    "no-raw-mutex": lambda p: _in_src(p) and p != "src/common/mutex.h",
    "no-stdio": lambda p: _in_src(p)
    and p not in ("src/common/logging.cc", "src/common/check.h"),
    "no-raw-intrinsics": lambda p: (p.startswith("src/") or p.startswith("tools/"))
    and not p.startswith("src/linalg/simd/"),
}

# The subsystem layering DAG: subsystem -> subsystems it may include.
# Kept in dependency order, bottom first. This is the *actual* DAG —
# linalg sits above par/obs because the SVD kernels run on the thread
# pool and publish solver telemetry — not an aspirational one; changing
# it is an architectural decision that belongs in this diff-reviewed
# table, mirrored in DESIGN.md ("Static analysis").
ALLOWED_DEPS = {
    "dbg": set(),
    "common": {"dbg"},
    "obs": {"dbg", "common"},
    "par": {"dbg", "common", "obs"},
    "linalg": {"dbg", "common", "obs", "par"},
    "text": {"dbg", "common", "linalg"},
    "model": {"dbg", "common", "linalg", "text"},
    "core": {"dbg", "common", "linalg", "obs", "par", "text"},
    "live": {"dbg", "common", "core", "linalg", "obs", "par", "text"},
    "serve": {"dbg", "common", "core", "linalg", "live", "obs", "par",
              "text"},
    "shard": {"dbg", "common", "core", "linalg", "live", "obs", "par",
              "serve", "text"},
}

RANK_TABLE_PATH = "src/common/lock_ranks.h"

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
COMMENT_RE = re.compile(r"/\*.*?\*/|//.*$")

# A complete call and the literal-only argument shape it must have.
FAULT_CALL_RE = re.compile(r"\bLSI_FAULT_POINT\s*\(([^)]*)\)")
FAULT_NAME_RE = re.compile(r'^\s*"([a-z0-9_.]+)"\s*$')
FAULT_OPEN_RE = re.compile(r"\bLSI_FAULT_POINT\s*\([^)]*$")

# A route dispatch in the service layer: `path == "/query"`.
ROUTE_RE = re.compile(r'\bpath\s*==\s*"/([a-z0-9_]+)"')

# serve routes that predate the fault registry. Everything added after
# this set was frozen must declare a `serve.<route>.*` fault point; the
# shard router postdates the registry entirely, so no shard route is
# grandfathered.
GRANDFATHERED_ROUTES = frozenset(
    {"healthz", "metrics", "statusz", "query", "related"}
)

# Maps a source path to the fault-point namespace its routes must use.
ROUTE_NAMESPACES = (("src/serve/", "serve"), ("src/shard/", "shard"))

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# A Mutex member/variable declaration: `Mutex name;`, `Mutex name{...};`.
# References (`Mutex&`) and the wrapped `std::mutex` never match. The
# brace initialiser holds no nested braces (it is one macro call), so a
# non-greedy [^}]* spans multi-line declarations safely.
MUTEX_DECL_RE = re.compile(r"\bMutex\s+(\w+)\s*(;|\{[^}]*\}\s*;)", re.DOTALL)
GUARDED_BY_RE = re.compile(r"\bLSI_(?:PT_)?GUARDED_BY\s*\(\s*([\w]+)\s*\)")
LOCK_RANK_CALL_RE = re.compile(r"\bLSI_LOCK_RANK\s*\(([^)]*)\)", re.DOTALL)
LOCK_RANK_ARGS_RE = re.compile(
    r'^\s*"([a-z0-9_.]+)"\s*,\s*(?:::)?(?:lsi::)?lock_rank::(k\w+)\s*$',
    re.DOTALL,
)
RANK_CONST_RE = re.compile(r"\binline\s+constexpr\s+int\s+(k\w+)\s*=\s*(\d+)")


def strip_comments(line: str) -> str:
    """Drops // and /* */ comments, keeping string literals (the
    fault-point and rank rules inspect the literal itself).

    Comment markers are located in a copy with every literal blanked, so
    a `//` inside a string cannot masquerade as a comment start. Block
    comments are handled on one line only; the codebase uses line
    comments throughout, and a false positive is a visible, fixable
    report rather than a silent miss.
    """
    blanked = STRING_RE.sub(lambda m: '"' + "x" * (len(m.group(0)) - 2) + '"', line)
    kept, pos = [], 0
    for m in COMMENT_RE.finditer(blanked):
        kept.append(line[pos : m.start()])
        pos = m.end()
    kept.append(line[pos:])
    return "".join(kept)


def finding(rule, path, line, message, snippet=""):
    return {
        "rule": rule,
        "path": path,
        "line": line,
        "message": message,
        "snippet": snippet.strip()[:120],
    }


def expected_guard(relpath: str) -> str:
    # src/core/engine.h -> LSI_CORE_ENGINE_H_
    without_src = relpath[len("src/"):]
    token = re.sub(r"[^A-Za-z0-9]", "_", without_src)
    return "LSI_" + token.upper() + "_"


def subsystem_of(relpath: str):
    parts = relpath.split("/")
    return parts[1] if relpath.startswith("src/") and len(parts) >= 3 else None


def load_rank_table(root: str):
    """Parses lock_rank::k* constants out of src/common/lock_ranks.h.
    Returns {constant: value} or None when the table file is absent
    (fixture trees without one skip the existence check)."""
    path = os.path.join(root, RANK_TABLE_PATH)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        code = "\n".join(strip_comments(l) for l in fh.read().splitlines())
    return {name: int(value) for name, value in RANK_CONST_RE.findall(code)}


class Sites:
    """Call sites collected across files for the cross-file checks:
    key -> [(path, line)] for fault-point names, routes (keyed by
    (namespace, route)) and LSI_LOCK_RANK names."""

    def __init__(self):
        self.fault_points = {}
        self.routes = {}
        self.rank_names = {}


def check_line_rules(relpath, lines):
    findings = []
    for lineno, raw in enumerate(lines, start=1):
        code = STRING_RE.sub('""', strip_comments(raw))
        for rule, pattern, message in LINE_RULES:
            if RULE_SCOPE[rule](relpath) and pattern.search(code):
                findings.append(finding(rule, relpath, lineno, message, raw))
    if _in_src(relpath) and relpath.endswith(".h"):
        guard = expected_guard(relpath)
        ifndef = f"#ifndef {guard}"
        define = f"#define {guard}"
        head = [l.strip() for l in lines[:40]]
        if ifndef not in head or define not in head:
            findings.append(finding(
                "include-guard", relpath, 1,
                f"header must open with {ifndef} / {define}",
                lines[0] if lines else ""))
    return findings


def check_fault_points(relpath, lines, sites):
    findings = []
    for prefix, namespace in ROUTE_NAMESPACES:
        if relpath.startswith(prefix):
            for lineno, raw in enumerate(lines, start=1):
                for m in ROUTE_RE.finditer(strip_comments(raw)):
                    sites.routes.setdefault((namespace, m.group(1)), []).append(
                        (relpath, lineno))
    if not relpath.startswith(("src/", "tools/")) or relpath == "src/common/fault.h":
        return findings
    for lineno, raw in enumerate(lines, start=1):
        code = strip_comments(raw)
        matched_spans = []
        for m in FAULT_CALL_RE.finditer(code):
            matched_spans.append(m.span())
            name = FAULT_NAME_RE.match(m.group(1))
            if name is None:
                findings.append(finding(
                    "fault-point", relpath, lineno,
                    'LSI_FAULT_POINT takes a single string literal matching '
                    '"[a-z0-9_.]+"', raw))
            else:
                sites.fault_points.setdefault(name.group(1), []).append(
                    (relpath, lineno))
        open_call = FAULT_OPEN_RE.search(code)
        if open_call and not any(
            s <= open_call.start() < e for s, e in matched_spans
        ):
            findings.append(finding(
                "fault-point", relpath, lineno,
                "keep the LSI_FAULT_POINT call on one line so its name "
                "stays lintable", raw))
    return findings


def check_structure(relpath, lines, rank_table, sites):
    """The multi-line src/ rules: layering, mutex-rank, mutex-guard,
    rank-table; records LSI_LOCK_RANK names for rank-unique."""
    findings = []
    if not _in_src(relpath):
        return findings
    code = "\n".join(strip_comments(l) for l in lines)

    def line_of(offset):
        return code.count("\n", 0, offset) + 1

    def snippet_at(lineno):
        return lines[lineno - 1] if lineno <= len(lines) else ""

    # -- layering ---------------------------------------------------
    sub = subsystem_of(relpath)
    if sub is not None and sub not in ALLOWED_DEPS:
        findings.append(finding(
            "layering", relpath, 1,
            f'subsystem "src/{sub}/" is not in the layering DAG; add '
            "it to ALLOWED_DEPS in tools/lsi_lint.py (and to DESIGN.md "
            '"Static analysis") before building on it'))
    elif sub is not None:
        for lineno, raw in enumerate(lines, start=1):
            m = INCLUDE_RE.match(strip_comments(raw))
            if m is None:
                continue
            dep = m.group(1).split("/")[0]
            if dep == sub or dep not in ALLOWED_DEPS:
                continue
            if dep not in ALLOWED_DEPS[sub]:
                findings.append(finding(
                    "layering", relpath, lineno,
                    f'"{sub}" may not depend on "{dep}" (allowed: '
                    f"{', '.join(sorted(ALLOWED_DEPS[sub])) or 'none'}); "
                    "the layering DAG lives in tools/lsi_lint.py", raw))

    # -- mutex-rank / mutex-guard -----------------------------------
    # The wrapper's own header declares the type, not instances.
    if relpath != "src/common/mutex.h":
        guard_users = set(GUARDED_BY_RE.findall(code))
        for m in MUTEX_DECL_RE.finditer(code):
            name, init = m.group(1), m.group(2)
            lineno = line_of(m.start())
            if "LSI_LOCK_RANK" not in init:
                findings.append(finding(
                    "mutex-rank", relpath, lineno,
                    f'Mutex "{name}" has no rank: construct it with '
                    'LSI_LOCK_RANK("<subsystem>.<name>", lock_rank::k...) '
                    "so LSI_DEADLOCK_DETECT can order it "
                    "(src/common/lock_ranks.h)", snippet_at(lineno)))
            if name not in guard_users:
                findings.append(finding(
                    "mutex-guard", relpath, lineno,
                    f'Mutex "{name}" has no LSI_GUARDED_BY({name}) user in '
                    "this file; annotate the state it protects or delete "
                    "the lock", snippet_at(lineno)))

    # -- rank-table -------------------------------------------------
    # The table header defines the macro and the constants: check that
    # the constants are distinct. Everywhere else, check the call sites.
    if relpath == RANK_TABLE_PATH:
        first_of = {}
        for m in RANK_CONST_RE.finditer(code):
            constant, value = m.group(1), int(m.group(2))
            if value in first_of:
                lineno = line_of(m.start())
                findings.append(finding(
                    "rank-table", relpath, lineno,
                    f"lock_rank::{constant} repeats the value {value} of "
                    f"lock_rank::{first_of[value]}; ranks must be distinct "
                    "so the strict rank rule orders every pair of lock "
                    "classes", snippet_at(lineno)))
            else:
                first_of[value] = constant
        return findings
    for m in LOCK_RANK_CALL_RE.finditer(code):
        lineno = line_of(m.start())
        args = LOCK_RANK_ARGS_RE.match(m.group(1))
        if args is None:
            findings.append(finding(
                "rank-table", relpath, lineno,
                'LSI_LOCK_RANK takes ("[a-z0-9_.]+", lock_rank::k...) '
                "— a literal name and a constant from "
                "src/common/lock_ranks.h, nothing else", snippet_at(lineno)))
            continue
        name, constant = args.group(1), args.group(2)
        if rank_table is not None and constant not in rank_table:
            findings.append(finding(
                "rank-table", relpath, lineno,
                f"lock_rank::{constant} is not defined in "
                f"{RANK_TABLE_PATH}; add it to the right band there first",
                snippet_at(lineno)))
        sites.rank_names.setdefault(name, []).append((relpath, lineno))
    return findings


def check_file(relpath, text, rank_table, sites):
    """Checks one file; records cross-file call sites into `sites`."""
    lines = text.splitlines()
    return (
        check_line_rules(relpath, lines)
        + check_fault_points(relpath, lines, sites)
        + check_structure(relpath, lines, rank_table, sites)
    )


def check_cross_file(sites):
    """Uniqueness and route checks that need the whole tree in view."""
    findings = []
    for name, where_list in sorted(sites.fault_points.items()):
        where = ", ".join(f"{p}:{l}" for p, l in where_list)
        for path, line in where_list[1:]:
            findings.append(finding(
                "fault-point", path, line,
                f'fault point "{name}" is registered at more than one call '
                f"site ({where}); names must be unique so LSI_FAULT specs "
                "are unambiguous"))
    for (namespace, route), where_list in sorted(sites.routes.items()):
        if namespace == "serve" and route in GRANDFATHERED_ROUTES:
            continue
        prefix = f"{namespace}.{route}."
        if any(name.startswith(prefix) for name in sites.fault_points):
            continue
        path, line = where_list[0]
        findings.append(finding(
            "route-fault-point", path, line,
            f'route "/{route}" declares no fault point named "{prefix}*"; '
            f"every new {namespace} route ships with a kill switch the "
            "fault-torture job can arm"))
    for name, where_list in sorted(sites.rank_names.items()):
        where = ", ".join(f"{p}:{l}" for p, l in where_list)
        for path, line in where_list[1:]:
            findings.append(finding(
                "rank-unique", path, line,
                f'lock class "{name}" is declared at more than one site '
                f"({where}); one LSI_LOCK_RANK site per name — reuse the "
                "Mutex or pick a new name + rank"))
    return findings


def load_allowlist(path: str):
    """Returns a list of (rule, path_prefix) suppression entries."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SystemExit(
                    f"{path}:{lineno}: allowlist lines are `rule path`, "
                    f"got: {raw.strip()!r}"
                )
            entries.append((parts[0], parts[1]))
    return entries


def collect_files(root: str, paths):
    """Yields repo-relative posix paths of C++ files to check."""
    exts = (".h", ".cc", ".cpp")
    if not paths:
        paths = ["src", "tools"]
    for base in paths:
        absolute = os.path.join(root, base)
        if os.path.isfile(absolute):
            if absolute.endswith(exts):
                yield os.path.relpath(absolute, root).replace(os.sep, "/")
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(exts):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def compiled_sources(root, compile_commands_path):
    """Repo-relative paths of every TU in compile_commands.json."""
    with open(compile_commands_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    out = set()
    for entry in entries:
        file_path = entry.get("file", "")
        if not os.path.isabs(file_path):
            file_path = os.path.join(entry.get("directory", ""), file_path)
        rel = os.path.relpath(os.path.realpath(file_path),
                              os.path.realpath(root))
        out.add(rel.replace(os.sep, "/"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Static checks for the lsi codebase."
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "--allowlist",
        default=None,
        help="suppression file (default: <root>/tools/lint_allowlist.txt)",
    )
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json from CMAKE_EXPORT_COMPILE_COMMANDS; "
        "enables the compile-coverage rule",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON findings")
    parser.add_argument(
        "paths", nargs="*", help="files or directories relative to root"
    )
    args = parser.parse_args(argv)
    full_tree = not args.paths

    allowlist_path = args.allowlist or os.path.join(
        args.root, "tools", "lint_allowlist.txt"
    )
    allowlist = load_allowlist(allowlist_path)
    used = [False] * len(allowlist)

    def suppressed(f):
        for i, (rule, prefix) in enumerate(allowlist):
            if f["rule"] == rule and f["path"].startswith(prefix):
                used[i] = True
                return True
        return False

    rank_table = load_rank_table(args.root)
    sites = Sites()
    raw_findings = []
    seen_files = []
    for relpath in collect_files(args.root, args.paths):
        seen_files.append(relpath)
        try:
            with open(os.path.join(args.root, relpath), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            print(f"lsi_lint: cannot read {relpath}: {err}", file=sys.stderr)
            return 2
        raw_findings += check_file(relpath, text, rank_table, sites)

    # Cross-file checks only make sense on full-tree runs: a single-file
    # invocation cannot see the other call site of a duplicated name.
    if full_tree:
        raw_findings += check_cross_file(sites)

    if args.compile_commands is not None:
        try:
            compiled = compiled_sources(args.root, args.compile_commands)
        except (OSError, json.JSONDecodeError) as err:
            print(f"lsi_lint: cannot read {args.compile_commands}: {err}",
                  file=sys.stderr)
            return 2
        for relpath in seen_files:
            if (relpath.startswith("src/")
                    and relpath.endswith((".cc", ".cpp"))
                    and relpath not in compiled):
                raw_findings.append(finding(
                    "compile-coverage", relpath, 1,
                    f"{relpath} is not a translation unit in "
                    f"{args.compile_commands}; un-built sources are "
                    "invisible to clang -Wthread-safety and clang-tidy"))

    findings = [f for f in raw_findings if not suppressed(f)]

    # Only police allowlist staleness on full-tree runs; a single-file
    # invocation legitimately leaves most entries unused. compile-coverage
    # entries depend on the build host's architecture and are exempt.
    if full_tree:
        for (rule, prefix), was_used in zip(allowlist, used):
            if not was_used and rule != "compile-coverage":
                findings.append(finding(
                    "stale-allowlist",
                    os.path.relpath(allowlist_path, args.root), 1,
                    f"allowlist entry `{rule} {prefix}` matches nothing; "
                    "delete it",
                    f"{rule} {prefix}"))

    if args.json:
        json.dump(findings, sys.stdout, indent=2)
        print()
    else:
        for f in findings:
            print(f"{f['path']}:{f['line']}: {f['rule']}: {f['message']}")
            if f["snippet"]:
                print(f"    {f['snippet']}")
    if findings:
        print(f"lsi_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
