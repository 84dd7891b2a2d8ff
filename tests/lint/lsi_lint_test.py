#!/usr/bin/env python3
"""Self-test for tools/lsi_lint.py.

Builds throwaway repo trees of good/bad fixture snippets and asserts
that every rule — line and structural — fires where it should, stays
quiet where it should not, that the allowlist both suppresses findings
and reports stale entries, and that the real tree is clean. With no
arguments every case runs; ctest runs it as two entries,
`lsi_lint_selftest` (LintFixture RealTreeIsClean) and
`lsi_structcheck_selftest` (StructureFixture).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LINTER = os.path.join(REPO_ROOT, "tools", "lsi_lint.py")

RANK_TABLE = (
    "#ifndef LSI_COMMON_LOCK_RANKS_H_\n"
    "#define LSI_COMMON_LOCK_RANKS_H_\n"
    "#define LSI_LOCK_RANK(name, rank) nullptr\n"
    "namespace lsi::lock_rank {\n"
    "inline constexpr int kLiveWrite = 24;\n"
    "inline constexpr int kObsMetrics = 70;\n"
    "}  // namespace lsi::lock_rank\n"
    "#endif  // LSI_COMMON_LOCK_RANKS_H_\n"
)


def run_lint(root, extra_args=()):
    """Runs the linter over `root`, returns (exit_code, findings list)."""
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", root, "--json", *extra_args],
        capture_output=True,
        text=True,
    )
    findings = json.loads(proc.stdout) if proc.stdout.strip() else []
    return proc.returncode, findings


def guard(relpath):
    token = relpath[len("src/"):].replace("/", "_").replace(".", "_").upper()
    return "LSI_" + token + "_"


def header(relpath, body=""):
    g = guard(relpath)
    return f"#ifndef {g}\n#define {g}\n{body}\n#endif  // {g}\n"


class FixtureTree(unittest.TestCase):
    """A throwaway repo tree per test; holds no test cases itself."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def rules_for(self, findings, relpath):
        return sorted(f["rule"] for f in findings if f["path"] == relpath)


class LintFixture(FixtureTree):
    """Line rules, fault points, routes, allowlist and CLI; runs under
    ctest as `lsi_lint_selftest`."""

    def test_clean_tree_passes(self):
        self.write("src/core/good.h", header("src/core/good.h", "int F();"))
        self.write("src/core/good.cc", "int F() { return 1; }\n")
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)
        self.assertEqual(findings, [])

    def test_no_throw_fires_in_src_only(self):
        self.write("src/core/bad.cc", "void F() { throw 1; }\n")
        self.write("tools/fine.cc", "void G() { throw 1; }\n")
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/core/bad.cc"), ["no-throw"])
        self.assertEqual(self.rules_for(findings, "tools/fine.cc"), [])

    def test_no_throw_ignores_comments_strings_and_identifiers(self):
        self.write(
            "src/core/ok.cc",
            '// never throw here\n'
            'const char* k = "throw";\n'
            "void F() { std::rethrow_exception(p); }\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_no_raw_random_fires_outside_rng(self):
        self.write("src/core/bad.cc", "int F() { return rand(); }\n")
        self.write("src/model/bad2.cc", "std::random_device rd;\n")
        self.write("src/common/rng.cc", "std::random_device seed_source;\n")
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/core/bad.cc"), ["no-raw-random"])
        self.assertEqual(self.rules_for(findings, "src/model/bad2.cc"), ["no-raw-random"])
        self.assertEqual(self.rules_for(findings, "src/common/rng.cc"), [])

    def test_no_raw_thread_fires_outside_par(self):
        self.write("src/core/bad.cc", "std::thread t([] {});\n")
        self.write("src/par/pool.cc", "std::thread t([] {});\n")
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/core/bad.cc"), ["no-raw-thread"])
        self.assertEqual(self.rules_for(findings, "src/par/pool.cc"), [])

    def test_no_raw_mutex_fires_outside_wrapper(self):
        self.write(
            "src/core/bad.cc",
            "std::mutex mu;\nstd::lock_guard<std::mutex> l(mu);\n"
            "std::condition_variable cv;\n",
        )
        self.write("src/common/mutex.h", header("src/common/mutex.h", "std::mutex mu_;"))
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/core/bad.cc"),
            ["no-raw-mutex", "no-raw-mutex", "no-raw-mutex"],
        )
        self.assertEqual(self.rules_for(findings, "src/common/mutex.h"), [])

    def test_no_stdio_fires_but_snprintf_and_logging_are_exempt(self):
        self.write(
            "src/core/bad.cc",
            'void F() { printf("x"); }\nvoid F2() { std::cout << 1; }\n',
        )
        self.write(
            "src/core/ok.cc",
            'void G(char* buf) { std::snprintf(buf, 8, "%d", 1); }\n',
        )
        self.write("src/common/logging.cc", 'void H() { std::fputs("x", stderr); }\n')
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/core/bad.cc"), ["no-stdio", "no-stdio"]
        )
        self.assertEqual(self.rules_for(findings, "src/core/ok.cc"), [])
        self.assertEqual(self.rules_for(findings, "src/common/logging.cc"), [])

    def test_no_raw_intrinsics_fires_outside_simd_layer(self):
        self.write(
            "src/core/bad.cc",
            "#include <immintrin.h>\n"
            "__m256d Acc() { return _mm256_setzero_pd(); }\n",
        )
        self.write("src/linalg/bad_neon.cc", "float64x2_t v = vdupq_n_f64(0.0);\n")
        self.write(
            "tools/bad_tool.cc",
            "double F(const double* a) { return _mm_cvtsd_f64(_mm_load_sd(a)); }\n",
        )
        self.write(
            "src/linalg/simd/simd_avx2.cc",
            "#include <immintrin.h>\n"
            "__m256d Acc() { return _mm256_setzero_pd(); }\n",
        )
        self.write(
            "src/core/ok.cc",
            "// _mm256_fmadd_pd is mentioned only in this comment\n"
            "double F() { return 0.0; }\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/core/bad.cc"),
            ["no-raw-intrinsics", "no-raw-intrinsics"],
        )
        self.assertEqual(
            self.rules_for(findings, "src/linalg/bad_neon.cc"),
            ["no-raw-intrinsics"],
        )
        self.assertEqual(
            self.rules_for(findings, "tools/bad_tool.cc"), ["no-raw-intrinsics"]
        )
        self.assertEqual(self.rules_for(findings, "src/linalg/simd/simd_avx2.cc"), [])
        self.assertEqual(self.rules_for(findings, "src/core/ok.cc"), [])

    def test_include_guard_mismatch_reported(self):
        self.write(
            "src/core/bad.h",
            "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n",
        )
        self.write("src/core/good.h", header("src/core/good.h"))
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/core/bad.h"), ["include-guard"])
        self.assertEqual(self.rules_for(findings, "src/core/good.h"), [])

    def test_fault_point_argument_must_be_a_well_formed_literal(self):
        self.write(
            "src/core/bad.cc",
            "bool F() { return LSI_FAULT_POINT(kName); }\n"
            'bool G() { return LSI_FAULT_POINT("Bad Name"); }\n'
            'bool H() { return LSI_FAULT_POINT(\n'
            '    "core.split.call"); }\n',
        )
        self.write(
            "tools/bad_tool.cc",
            'bool T() { return LSI_FAULT_POINT("UPPER"); }\n',
        )
        self.write(
            "src/core/ok.cc",
            'bool I() { return LSI_FAULT_POINT("core.ok.point_1"); }\n',
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/core/bad.cc"),
            ["fault-point", "fault-point", "fault-point"],
        )
        self.assertEqual(
            self.rules_for(findings, "tools/bad_tool.cc"), ["fault-point"]
        )
        self.assertEqual(self.rules_for(findings, "src/core/ok.cc"), [])

    def test_fault_point_duplicate_names_reported_on_full_runs_only(self):
        self.write(
            "src/core/a.cc", 'bool F() { return LSI_FAULT_POINT("core.dup"); }\n'
        )
        self.write(
            "src/core/b.cc", 'bool G() { return LSI_FAULT_POINT("core.dup"); }\n'
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["fault-point"])
        self.assertIn("core.dup", findings[0]["message"])
        # A single-file invocation cannot see the other call site, so the
        # uniqueness check stays quiet there.
        code, findings = run_lint(self.root, ("src/core/a.cc",))
        self.assertEqual(code, 0, findings)

    def test_fault_point_macro_definition_and_comments_are_exempt(self):
        self.write(
            "src/common/fault.h",
            header(
                "src/common/fault.h",
                "#define LSI_FAULT_POINT(name) ::lsi::fault::Eval(name)",
            ),
        )
        self.write(
            "src/core/ok.cc",
            "// e.g. LSI_FAULT_POINT(dynamic_name) would be rejected\n"
            'bool F() { return LSI_FAULT_POINT("core.one"); }\n',
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_route_without_fault_point_reported(self):
        self.write(
            "src/serve/service.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/bulk") { return HandleBulk(); }\n'
            "}\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/serve/service.cc"),
            ["route-fault-point"],
        )
        self.assertIn("/bulk", findings[0]["message"])
        self.assertEqual(findings[0]["line"], 2)

    def test_route_with_matching_fault_point_is_clean(self):
        self.write(
            "src/serve/service.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/bulk") {\n'
            '    if (LSI_FAULT_POINT("serve.bulk.route")) { return Retry(); }\n'
            "  }\n"
            "}\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_grandfathered_routes_need_no_fault_point(self):
        self.write(
            "src/serve/service.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/healthz") { return Ok(); }\n'
            '  if (path == "/query") { return HandleQuery(); }\n'
            "}\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_shard_routes_need_fault_points_with_no_grandfathering(self):
        # The shard router postdates the fault registry: even routes that
        # serve grandfathers (like /query) must ship a shard.<route>.*
        # fault point when dispatched from src/shard.
        self.write(
            "src/shard/router.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/query") { return HandleQuery(); }\n'
            "}\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/shard/router.cc"),
            ["route-fault-point"],
        )
        self.assertIn("shard.query.", findings[0]["message"])

    def test_shard_route_with_matching_fault_point_is_clean(self):
        self.write(
            "src/shard/router.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/query") {\n'
            '    if (LSI_FAULT_POINT("shard.query.route")) { return Retry(); }\n'
            "  }\n"
            "}\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_serve_fault_point_does_not_satisfy_a_shard_route(self):
        # Namespaces are per-layer: a serve.query.* point cannot stand in
        # for the shard router's own kill switch.
        self.write(
            "src/shard/router.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/related") { return HandleRelated(); }\n'
            "}\n",
        )
        self.write(
            "src/serve/service.cc",
            'HttpResponse G(const std::string& path) {\n'
            '  if (LSI_FAULT_POINT("serve.related.route")) { return Retry(); }\n'
            "}\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/shard/router.cc"),
            ["route-fault-point"],
        )

    def test_route_check_skips_single_file_runs_and_non_serve_code(self):
        # A literal `path == "/x"` outside src/serve is not a route.
        self.write(
            "src/core/walker.cc",
            'bool AtRoot(const std::string& path) { return path == "/root"; }\n',
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)
        # Single-file runs cannot see fault points in other files, so the
        # cross-file route check stays quiet there.
        self.write(
            "src/serve/routes.cc",
            'HttpResponse F(const std::string& path) {\n'
            '  if (path == "/bulk") { return HandleBulk(); }\n'
            "}\n",
        )
        code, findings = run_lint(self.root, ("src/serve/routes.cc",))
        self.assertEqual(code, 0, findings)

    def test_allowlist_suppresses_and_reports_stale_entries(self):
        self.write("src/serve/threads.cc", "std::thread t([] {});\n")
        allow = os.path.join(self.root, "allow.txt")
        with open(allow, "w", encoding="utf-8") as fh:
            fh.write(
                "# service threads are intentional\n"
                "no-raw-thread src/serve/threads.cc\n"
            )
        code, findings = run_lint(self.root, ("--allowlist", allow))
        self.assertEqual(code, 0, findings)

        with open(allow, "a", encoding="utf-8") as fh:
            fh.write("no-throw src/gone/nothing.cc\n")
        code, findings = run_lint(self.root, ("--allowlist", allow))
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["stale-allowlist"])

    def test_single_file_invocation_skips_staleness_check(self):
        self.write("src/serve/threads.cc", "std::thread t([] {});\n")
        self.write("src/core/clean.cc", "int F();\n")
        allow = os.path.join(self.root, "allow.txt")
        with open(allow, "w", encoding="utf-8") as fh:
            fh.write("no-raw-thread src/serve/threads.cc\n")
        code, findings = run_lint(
            self.root, ("--allowlist", allow, "src/core/clean.cc")
        )
        self.assertEqual(code, 0, findings)

    def test_findings_are_machine_readable(self):
        self.write("src/core/bad.cc", "void F() { throw 1; }\n")
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        (finding,) = findings
        self.assertEqual(
            sorted(finding), ["line", "message", "path", "rule", "snippet"]
        )
        self.assertEqual(finding["line"], 1)


class StructureFixture(FixtureTree):
    """Structural rules (layering, mutex-rank, mutex-guard, rank-table,
    compile-coverage); runs under ctest as `lsi_structcheck_selftest`."""

    def compile_commands(self, *sources):
        """Writes a compile_commands.json listing `sources`; returns its path."""
        path = os.path.join(self.root, "compile_commands.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"directory": self.root, "file": src, "command": f"c++ -c {src}"}
                    for src in sources
                ],
                fh,
            )
        return path

    def test_clean_tree_with_ranked_mutex_passes(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/live/engine.h",
            header(
                "src/live/engine.h",
                '#include "common/lock_ranks.h"\n'
                '#include "common/mutex.h"\n'
                "class Engine {\n"
                "  Mutex write_mutex_{\n"
                '      LSI_LOCK_RANK("live.engine.write", '
                "lock_rank::kLiveWrite)};\n"
                "  int pending_ LSI_GUARDED_BY(write_mutex_) = 0;\n"
                "};",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)
        self.assertEqual(findings, [])

    def test_layering_violation_reported_with_allowed_list(self):
        # common is the second-lowest layer: including serve from it
        # inverts the DAG.
        self.write("src/common/bad.cc", '#include "serve/server.h"\n')
        # live -> core is a legal downward edge.
        self.write("src/live/ok.cc", '#include "core/engine.h"\n')
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/common/bad.cc"), ["layering"])
        self.assertEqual(self.rules_for(findings, "src/live/ok.cc"), [])
        (f,) = [f for f in findings if f["path"] == "src/common/bad.cc"]
        self.assertIn('"common" may not depend on "serve"', f["message"])

    def test_unknown_subsystem_is_a_layering_finding(self):
        self.write("src/newsub/thing.cc", "int F() { return 1; }\n")
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/newsub/thing.cc"), ["layering"])
        self.assertIn("ALLOWED_DEPS", findings[0]["message"])

    def test_same_subsystem_and_unknown_includes_are_fine(self):
        self.write(
            "src/core/engine.cc",
            '#include "core/index.h"\n#include <vector>\n'
            '#include "gtest/gtest.h"\n',
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_unranked_mutex_member_reported(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/obs/registry.h",
            header(
                "src/obs/registry.h",
                "class Registry {\n"
                "  mutable Mutex mutex_;\n"
                "  int value_ LSI_GUARDED_BY(mutex_) = 0;\n"
                "};",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/obs/registry.h"), ["mutex-rank"])
        self.assertEqual(findings[0]["line"], 4)
        self.assertIn("LSI_LOCK_RANK", findings[0]["message"])

    def test_mutex_without_guarded_by_user_reported(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/obs/registry.h",
            header(
                "src/obs/registry.h",
                "class Registry {\n"
                "  mutable Mutex mutex_{\n"
                '      LSI_LOCK_RANK("obs.metrics", lock_rank::kObsMetrics)};\n'
                "  int value_ = 0;  // oops: unannotated\n"
                "};",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/obs/registry.h"), ["mutex-guard"])

    def test_mutex_references_locks_comments_and_wrapper_header_do_not_match(self):
        # The wrapper header itself declares no rankable instances.
        self.write(
            "src/common/mutex.h",
            header("src/common/mutex.h", "class Mutex { std::mutex mu_; };"),
        )
        self.write(
            "src/core/user.cc",
            "void F(Mutex& mu) { MutexLock lock(mu); }\n"
            "// a bare `Mutex m_;` in a comment is not a declaration\n",
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_numeric_literal_rank_reported(self):
        # A hard-coded rank in src/ bypasses the table — exactly how an
        # inconsistent AB/BA pair would slip in.
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/live/bad.h",
            header(
                "src/live/bad.h",
                "class Bad {\n"
                '  Mutex a_{LSI_LOCK_RANK("live.bad.a", 10)};\n'
                "  int x_ LSI_GUARDED_BY(a_) = 0;\n"
                "};",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/live/bad.h"), ["rank-table"])

    def test_unknown_rank_constant_reported(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/live/bad.h",
            header(
                "src/live/bad.h",
                "class Bad {\n"
                '  Mutex a_{LSI_LOCK_RANK("live.bad.a", lock_rank::kNope)};\n'
                "  int x_ LSI_GUARDED_BY(a_) = 0;\n"
                "};",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual(self.rules_for(findings, "src/live/bad.h"), ["rank-table"])
        self.assertIn("kNope", findings[0]["message"])

    def test_rank_constants_sharing_a_value_reported(self):
        # Two lock classes of one rank have no order between them, which
        # the strict runtime rule turns into a violation whichever way
        # they nest; the table must keep every rank distinct.
        self.write(
            "src/common/lock_ranks.h",
            RANK_TABLE.replace(
                "inline constexpr int kObsMetrics = 70;\n",
                "inline constexpr int kObsMetrics = 70;\n"
                "inline constexpr int kLiveShadow = 24;\n",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        (f,) = findings
        self.assertEqual(f["rule"], "rank-table")
        self.assertEqual(f["path"], "src/common/lock_ranks.h")
        self.assertEqual(f["line"], 7)
        self.assertIn("kLiveShadow", f["message"])
        self.assertIn("kLiveWrite", f["message"])

    def test_duplicate_rank_names_reported_on_full_runs_only(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        body = (
            "class C {\n"
            '  Mutex m_{LSI_LOCK_RANK("live.dup", lock_rank::kLiveWrite)};\n'
            "  int x_ LSI_GUARDED_BY(m_) = 0;\n"
            "};"
        )
        self.write("src/live/a.h", header("src/live/a.h", body))
        self.write("src/live/b.h", header("src/live/b.h", body))
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["rank-unique"])
        self.assertIn("live.dup", findings[0]["message"])
        # Single-file runs cannot see the other site.
        code, findings = run_lint(self.root, ("src/live/a.h",))
        self.assertEqual(code, 0, findings)

    def test_rank_macro_in_comments_is_ignored(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/core/doc.h",
            header(
                "src/core/doc.h",
                '// e.g. Mutex m_{LSI_LOCK_RANK("x", 3)}; would be rejected\n'
                "int F();",
            ),
        )
        code, findings = run_lint(self.root)
        self.assertEqual(code, 0, findings)

    def test_compile_coverage_reports_unbuilt_sources(self):
        self.write("src/core/built.cc", "int F() { return 1; }\n")
        self.write("src/core/orphan.cc", "int G() { return 2; }\n")
        cc_path = self.compile_commands("src/core/built.cc")
        code, findings = run_lint(self.root, ("--compile-commands", cc_path))
        self.assertEqual(code, 1)
        self.assertEqual(
            self.rules_for(findings, "src/core/orphan.cc"), ["compile-coverage"]
        )
        self.assertEqual(self.rules_for(findings, "src/core/built.cc"), [])

    def test_allowlist_covers_structural_rules(self):
        self.write("src/common/lock_ranks.h", RANK_TABLE)
        self.write(
            "src/obs/lonely.h",
            header(
                "src/obs/lonely.h",
                "class L {\n"
                "  Mutex m_{\n"
                '      LSI_LOCK_RANK("obs.metrics", lock_rank::kObsMetrics)};\n'
                "};",
            ),
        )
        allow = os.path.join(self.root, "allow.txt")
        with open(allow, "w", encoding="utf-8") as fh:
            fh.write("mutex-guard src/obs/lonely.h\n")
        code, findings = run_lint(self.root, ("--allowlist", allow))
        self.assertEqual(code, 0, findings)

        with open(allow, "a", encoding="utf-8") as fh:
            fh.write("layering src/gone/nothing.cc\n")
        code, findings = run_lint(self.root, ("--allowlist", allow))
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["stale-allowlist"])

    def test_compile_coverage_allowlist_entries_are_never_stale(self):
        self.write("src/core/built.cc", "int F() { return 1; }\n")
        cc_path = self.compile_commands("src/core/built.cc")
        allow = os.path.join(self.root, "allow.txt")
        with open(allow, "w", encoding="utf-8") as fh:
            fh.write("compile-coverage src/linalg/simd/simd_neon.cc\n")
        code, findings = run_lint(
            self.root, ("--allowlist", allow, "--compile-commands", cc_path)
        )
        self.assertEqual(code, 0, findings)

    def test_structural_findings_are_machine_readable(self):
        self.write("src/common/bad.cc", '#include "serve/server.h"\n')
        code, findings = run_lint(self.root)
        self.assertEqual(code, 1)
        (finding,) = findings
        self.assertEqual(
            sorted(finding), ["line", "message", "path", "rule", "snippet"]
        )
        self.assertEqual(finding["rule"], "layering")
        self.assertEqual(finding["line"], 1)


class RealTreeIsClean(unittest.TestCase):
    def test_repo_passes_its_own_lint(self):
        code, findings = run_lint(REPO_ROOT)
        self.assertEqual(code, 0, findings)

    def test_repo_rank_constants_match_macro_sites(self):
        # Every rank constant in the table is referenced by at least one
        # LSI_LOCK_RANK site — the table cannot grow dead rows silently.
        table_path = os.path.join(REPO_ROOT, "src", "common", "lock_ranks.h")
        with open(table_path, encoding="utf-8") as fh:
            constants = set(re.findall(r"inline constexpr int (k\w+)", fh.read()))
        self.assertTrue(constants)
        used = set()
        for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
            for name in filenames:
                if not name.endswith((".h", ".cc")):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    used.update(re.findall(r"lock_rank::(k\w+)", fh.read()))
        self.assertEqual(
            constants - used, set(), "unused rank constants in lock_ranks.h"
        )


if __name__ == "__main__":
    unittest.main()
