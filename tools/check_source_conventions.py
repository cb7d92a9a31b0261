#!/usr/bin/env python3
"""Repo-wide source convention linter (the non-compiler half of the
static-analysis gate; clang -Wthread-safety and clang-tidy are the
compiler half).

Rules, each motivated by a bug class this repo has decided to make
unrepresentable:

  naked-mutex      std::mutex / std::lock_guard / std::unique_lock /
                   std::scoped_lock / std::condition_variable anywhere
                   outside src/common/mutex.h. Naked primitives carry no
                   thread-safety annotations, so clang's analysis cannot
                   see the locking discipline around them; every locking
                   site must go through udt::Mutex / MutexLock / CondVar.

  raw-random       rand() / std::random_device outside seeded data
                   generation. The repo's determinism guarantee (same
                   seed => bitwise-identical models and benches) dies the
                   moment any code path draws entropy from the
                   environment. Seeded generators (std::mt19937 and the
                   repo's own splitmix streams) are fine.

  unordered-serialize
                   Range-for iteration over a std::unordered_map/set
                   whose loop body feeds a serialization sink (stream
                   <<, string append, Serialize/Write calls, fprintf).
                   Unordered iteration order is implementation-defined,
                   so bytes produced this way are not stable across
                   standard libraries — the forest/model serializers are
                   byte-compared in tests and must never depend on it.
                   Order-insensitive folds (sums, max) are fine.

  include-guard    Header guards must be UDT_<PATH>_H_ derived from the
                   repo-relative path with the src/ prefix dropped
                   (src/api/forest.h -> UDT_API_FOREST_H_,
                   bench/bench_common.h -> UDT_BENCH_BENCH_COMMON_H_).
                   Copy-pasted guards silently merge two headers.

  unjustified-escape
                   UDT_NO_THREAD_SAFETY_ANALYSIS without a justification
                   comment on the same or preceding line. The macro turns
                   the analysis off for a whole function; an unexplained
                   use is indistinguishable from a silenced bug.

  unjustified-void-status
                   `(void)` casts applied to a Status-returning
                   expression without a same-line justification comment.
                   Status is [[nodiscard]]; a bare (void) is the blanket
                   suppression the nodiscard audit exists to prevent.

  scanf-parse      sscanf / strto* / ato* / std::sto* calls under src/
                   outside src/common/string_util.cc. Out-of-range %d is
                   undefined behaviour (glibc wraps 2^32 + 1 to 1) and a
                   format string accepts trailing tokens, so a container
                   reader built on them admits lines it should reject.
                   Readers split a line into tokens and parse each with
                   the bounded ParseInt / ParseUint64 / ParseDouble, which
                   wrap the C parsers in one place.

  layer-include    A quoted #include "<dir>/..." in src/<y>/ whose <dir>
                   the udt_<y> library cannot reach through the
                   target_link_libraries(udt_<x> ...) graph in the root
                   CMakeLists.txt. The layering then lives only in CMake:
                   a header from a library the including layer does not
                   link (say api re-including storage) is a violation,
                   not a link error waiting for the first caller. Skipped
                   when the root has no CMakeLists.txt.

  test-reference   A quoted #include of a header under tests/ from src/,
                   bench/ or examples/: a path with a tests/ component,
                   or one naming a tests/ header by its path there. The
                   test references (tests/split_reference.h's gather) are
                   the slow, obvious constructions the build is compared
                   against; included from production code they would
                   become a second way to make what the build makes.

  flat-kernel      A call to ClassifyFlatBatch or ClassifyFlatMeans under
                   src/ outside src/tree/ (the kernels) and
                   src/api/predict_session.cc (the one dispatch by model
                   kind). Everything else in src/ that classifies a batch
                   (serving, evaluation, the forest's out-of-bag score)
                   goes through PredictSession, so the choice of kernel
                   per ModelKind is written once. tests/ and bench/ may
                   drive the kernels directly.

Per-line opt-outs, always with a reason after the colon:

  // lint-ok(naked-mutex): <reason>     (same line or the line above)

src/common/mutex.h is exempt from naked-mutex wholesale (it is the one
wrapper), src/common/string_util.cc from scanf-parse (it is the one
place the C parsers are wrapped). Generated/vendored code would be
listed in EXEMPT_PATHS.

Usage:
  check_source_conventions.py [--root DIR]     lint the repo (default .)
  check_source_conventions.py --self-test      seed one violation per
                                               rule into a temp tree and
                                               assert each is caught, and
                                               that a justified line is
                                               not — the linter's own
                                               negative test, run in CI
                                               and ctest before the real
                                               lint so a silently broken
                                               rule cannot pass the gate.

Exit code 0 = clean, 1 = violations (or a self-test failure), 2 = usage.
"""

import argparse
import os
import re
import sys
import tempfile

LINTED_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTENSIONS = (".h", ".cc")

# Files exempt from specific rules, path-relative to the repo root.
EXEMPT_PATHS = {
    "src/common/mutex.h": {"naked-mutex"},  # the wrapper itself
    "src/common/string_util.cc": {"scanf-parse"},  # the bounded parsers
}

OPT_OUT_RE = re.compile(r"//\s*lint-ok\((?P<rule>[a-z-]+)\):\s*\S")

NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b"
)
RAW_RANDOM_RE = re.compile(r"(?<![\w:])rand\s*\(\s*\)|std::random_device\b")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)\s*[;{=]"
)
SERIALIZE_SINK_RE = re.compile(
    r"<<|(?:\.|->)append\s*\(|StrAppend|Serialize|\bWrite\w*\s*\(|fprintf"
    r"|fputs"
)
ESCAPE_RE = re.compile(r"\bUDT_NO_THREAD_SAFETY_ANALYSIS\b")
VOID_STATUS_RE = re.compile(r"\(void\)[^;/]*\b[Ss]tatus\b")
SCANF_PARSE_RE = re.compile(
    r"\b(?:v?[sf]?scanf|strto\w+|ato(?:i|l|ll|f)"
    r"|std::sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")
COMMENT_RE = re.compile(r"//.*$")
LINK_RE = re.compile(r"target_link_libraries\(\s*udt_(\w+)([^)]*)\)")
LAYER_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(\w+)/')
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
FLAT_KERNEL_RE = re.compile(r"\bClassifyFlat(?:Batch|Means)\s*\(")
# The kernels themselves and the one session that dispatches to them.
FLAT_KERNEL_HOMES = ("src/tree/", "src/api/predict_session.cc")
# Code that ships or measures the build, which must not reach test code.
NON_TEST_DIRS = ("src", "bench", "examples")


def is_comment_or_string(line, match_start):
    """True if the match begins inside a // comment (string literals are
    rare enough in this codebase that comment stripping suffices)."""
    comment = line.find("//")
    return comment != -1 and comment < match_start


def has_opt_out(lines, index, rule):
    for probe in (index, index - 1):
        if 0 <= probe < len(lines):
            m = OPT_OUT_RE.search(lines[probe])
            if m and m.group("rule") == rule:
                return True
    return False


def has_justification_comment(lines, index):
    """A non-empty // comment on the same line or the line above."""
    for probe in (index, index - 1):
        if 0 <= probe < len(lines):
            m = re.search(r"//\s*(\S.*)", lines[probe])
            if m:
                return True
    return False


def expected_guard(relpath):
    trimmed = relpath[4:] if relpath.startswith("src/") else relpath
    return "UDT_" + re.sub(r"[^A-Za-z0-9]", "_", trimmed).upper() + "_"


def layer_reach(root):
    """Maps each src/<x> layer with a udt_<x> library to the set of layers
    it reaches through target_link_libraries (itself included), or returns
    None when the root has no CMakeLists.txt."""
    path = os.path.join(root, "CMakeLists.txt")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        text = "\n".join(re.sub(r"#.*$", "", line)
                         for line in f.read().splitlines())
    links = {}
    for m in LINK_RE.finditer(text):
        links.setdefault(m.group(1), set()).update(
            re.findall(r"\budt_(\w+)", m.group(2)))
    reach = {}
    for layer in links:
        seen, stack = {layer}, [layer]
        while stack:
            for dep in links.get(stack.pop(), ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        reach[layer] = seen
    return reach


def includes_test_header(path, test_headers):
    """True if quoted include `path` names a header under tests/: through a
    tests/ component, or as its path relative to tests/."""
    if re.search(r"(^|/)tests/", path):
        return True
    return re.sub(r"^(\./|\.\./)+", "", path) in test_headers


def check_file(relpath, lines, layers=None, test_headers=frozenset()):
    violations = []
    exempt = EXEMPT_PATHS.get(relpath, set())

    def report(rule, index, message):
        if rule in exempt or has_opt_out(lines, index, rule):
            return
        violations.append((relpath, index + 1, rule, message))

    unordered_names = set()
    for i, line in enumerate(lines):
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(m.group(1))

    in_seeded_datagen = "datagen" in relpath
    in_src = relpath.startswith("src/")
    parts = relpath.split("/")
    layer = parts[1] if in_src and len(parts) > 2 else None
    reachable = (layers or {}).get(layer)
    in_non_test = relpath.split("/")[0] in NON_TEST_DIRS
    flat_kernel_banned = in_src and not relpath.startswith(FLAT_KERNEL_HOMES)
    for i, line in enumerate(lines):
        m = NAKED_MUTEX_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            report(
                "naked-mutex", i,
                f"{m.group(0)} outside src/common/mutex.h — use udt::Mutex"
                " / MutexLock / CondVar so clang's thread-safety analysis"
                " sees the locking discipline")

        m = RAW_RANDOM_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if not in_seeded_datagen:
                report(
                    "raw-random", i,
                    f"{m.group(0).strip()} draws environment entropy —"
                    " breaks the same-seed bitwise-reproducibility"
                    " guarantee; use a seeded generator")

        # Range-for over a known unordered container: scan the loop body
        # (brace-balanced, bounded) for serialization sinks.
        loop = re.search(r"for\s*\([^;)]*:\s*\*?(\w+)\s*\)", line)
        if loop and loop.group(1) in unordered_names:
            depth = 0
            opened = False
            for j in range(i, min(i + 40, len(lines))):
                body = COMMENT_RE.sub("", lines[j])
                if j > i or body[loop.end():].strip() or "{" in body:
                    sink = SERIALIZE_SINK_RE.search(body)
                    if sink and j > i:
                        report(
                            "unordered-serialize", j,
                            f"iteration over unordered '{loop.group(1)}'"
                            " feeds a serialization sink — bytes depend"
                            " on hash order; sort keys first")
                        break
                depth += body.count("{") - body.count("}")
                opened = opened or "{" in body
                if opened and depth <= 0:
                    break

        m = ESCAPE_RE.search(line)
        if (m and not is_comment_or_string(line, m.start())
                and "#define" not in line):
            if not has_justification_comment(lines, i):
                report(
                    "unjustified-escape", i,
                    "UDT_NO_THREAD_SAFETY_ANALYSIS without a justification"
                    " comment on this or the preceding line")

        m = VOID_STATUS_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if not re.search(r"//\s*\S", line):
                report(
                    "unjustified-void-status", i,
                    "(void)-discarded Status without a same-line"
                    " justification comment")

        m = SCANF_PARSE_RE.search(line)
        if in_src and m and not is_comment_or_string(line, m.start()):
            report(
                "scanf-parse", i,
                f"{m.group(0).rstrip('( ')} parses unbounded — split the"
                " line into tokens and use ParseInt / ParseUint64 /"
                " ParseDouble from common/string_util.h")

        m = LAYER_INCLUDE_RE.match(line)
        if (reachable is not None and m and m.group(1) in layers
                and m.group(1) not in reachable):
            report(
                "layer-include", i,
                f"src/{layer}/ includes {m.group(1)}/ but udt_{layer} does"
                f" not link udt_{m.group(1)} (directly or transitively) in"
                " CMakeLists.txt")

        m = QUOTED_INCLUDE_RE.match(line)
        if (in_non_test and m
                and includes_test_header(m.group(1), test_headers)):
            report(
                "test-reference", i,
                f"{relpath.split('/')[0]}/ includes the test header"
                f" {m.group(1)} — test references stay in tests/; the"
                " build makes its lists one way")

        m = FLAT_KERNEL_RE.search(line)
        if (flat_kernel_banned and m
                and not is_comment_or_string(line, m.start())):
            report(
                "flat-kernel", i,
                f"{m.group(0).rstrip('( ')} called outside src/tree/ and"
                " src/api/predict_session.cc — classify through"
                " PredictSession, which picks the kernel per ModelKind")

    if relpath.endswith(".h"):
        guard = expected_guard(relpath)
        text = "\n".join(lines)
        ifndef = re.search(r"#ifndef\s+(\S+)", text)
        define = re.search(r"#define\s+(\S+)", text)
        if not ifndef or not define:
            report("include-guard", 0, f"missing include guard {guard}")
        elif ifndef.group(1) != guard or define.group(1) != guard:
            report(
                "include-guard", 0,
                f"guard is {ifndef.group(1)}, expected {guard}"
                " (UDT_<path-sans-src>_H_)")

    return violations


def test_header_paths(root):
    """Paths, relative to tests/, of every header under tests/."""
    base = os.path.join(root, "tests")
    headers = set()
    for dirpath, _, files in os.walk(base):
        for name in files:
            if name.endswith(".h"):
                headers.add(os.path.relpath(os.path.join(dirpath, name),
                                            base).replace(os.sep, "/"))
    return frozenset(headers)


def lint_tree(root):
    violations = []
    layers = layer_reach(root)
    test_headers = test_header_paths(root)
    for top in LINTED_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, files in os.walk(base):
            for name in sorted(files):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                relpath = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    lines = f.read().splitlines()
                violations.extend(
                    check_file(relpath, lines, layers, test_headers))
    return violations


# --------------------------------------------------------------- self-test

SELF_TEST_CASES = [
    # (relpath, contents, rules that MUST fire)
    ("src/bad/naked.cc",
     "#include <mutex>\nstd::mutex mu;\n",
     {"naked-mutex"}),
    ("src/bad/entropy.cc",
     "int Draw() { std::random_device rd; return rand(); }\n",
     {"raw-random"}),
    ("src/bad/unstable.cc",
     "#include <string>\n#include <unordered_map>\n"
     "std::unordered_map<int, int> table;\n"
     "void Dump(std::string* out) {\n"
     "  for (const auto& [k, v] : table) {\n"
     "    out->append(std::to_string(k));\n"
     "  }\n"
     "}\n",
     {"unordered-serialize"}),
    ("src/bad/guard.h",
     "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n",
     {"include-guard"}),
    ("src/bad/escape.cc",
     "void Sneak() UDT_NO_THREAD_SAFETY_ANALYSIS {\n}\n",
     {"unjustified-escape"}),
    ("src/bad/dropped.cc",
     "void F() { (void)DoThing().status(); }\n",
     {"unjustified-void-status"}),
    ("src/bad/frame.cc",
     "#include <cstdio>\n"
     "bool Frame(const char* line, int* index) {\n"
     "  return std::sscanf(line, \"tree %d\", index) == 1;\n"
     "}\n",
     {"scanf-parse"}),
    # Justified / exempt lines that must NOT fire.
    ("src/good/justified.cc",
     "// Reason: ctor runs before any thread exists.\n"
     "void Init() UDT_NO_THREAD_SAFETY_ANALYSIS {\n}\n"
     "void G() { (void)Best().status(); }  // advisory only, logged above\n"
     "// lint-ok(naked-mutex): illustrative comment in a doc string\n"
     "// std::mutex in prose is fine anyway\n",
     set()),
    ("src/common/string_util.cc",
     "#include <cstdlib>\n"
     "long Parse(const char* s) { return std::strtol(s, nullptr, 10); }\n",
     set()),
    ("tests/good/parse_test.cc",
     "#include <string>\n"
     "int Parse(const std::string& s) { return std::stoi(s); }\n"
     "// sscanf(line, ...) in prose is fine\n",
     set()),
    ("src/good/seeded_datagen.cc",
     "#include <random>\nstd::random_device rd;  // datagen path is exempt\n",
     set()),
    # Layering against SELF_TEST_CMAKE: api reaches core and, through it,
    # common, but not storage (the commented-out link must not count).
    ("src/api/layered.cc",
     '#include "storage/dataset_file.h"\n',
     {"layer-include"}),
    ("src/api/linked.cc",
     '#include "api/model.h"\n#include "core/builder.h"\n'
     '#include "common/status.h"\n',
     set()),
    # The test reference: a bench including it, by name or by path, is a
    # second production path; a test including it is what it is for.
    ("tests/split_reference.h",
     "#ifndef UDT_TESTS_SPLIT_REFERENCE_H_\n"
     "#define UDT_TESTS_SPLIT_REFERENCE_H_\n#endif\n",
     set()),
    ("bench/bench_reference.cc",
     '#include "split/fractional_tuple.h"\n#include "split_reference.h"\n',
     {"test-reference"}),
    ("examples/reference_path.cc",
     '#include "../tests/split_reference.h"\n',
     {"test-reference"}),
    ("tests/reference_user_test.cc",
     '#include "split/fractional_tuple.h"\n#include "split_reference.h"\n',
     set()),
    # The flat kernels: src/ outside their homes must go through the
    # session; the homes, prose mentions, tests and benches may not fire.
    ("src/api/oob_scorer.cc",
     "void Score() {\n"
     "  ClassifyFlatBatch(tree, tuples, rows, n, &scratch);\n"
     "  ClassifyFlatMeans(tree, *tuples[0], &scratch, rows[0]);\n"
     "}\n",
     {"flat-kernel"}),
    ("src/eval/means_eval.cc",
     "void Eval() { udt::ClassifyFlatMeans(tree, tuple, &scratch, row); }\n",
     {"flat-kernel"}),
    ("src/tree/flat_kernel_user.cc",
     "void Walk() { ClassifyFlatBatch(tree, tuples, rows, n, &scratch); }\n",
     set()),
    ("src/api/predict_session.cc",
     "void Block() { ClassifyFlatMeans(tree, tuple, &scratch, row); }\n",
     set()),
    ("src/api/session_doc.h",
     "#ifndef UDT_API_SESSION_DOC_H_\n#define UDT_API_SESSION_DOC_H_\n"
     "// Runs ClassifyFlatBatch(...) per tree, then folds the votes.\n"
     "#endif\n",
     set()),
    ("bench/bench_kernels.cc",
     "void Sweep() { ClassifyFlatBatch(tree, tuples, rows, n, &scratch); }\n",
     set()),
    ("tests/kernel_test.cc",
     "void Check() { ClassifyFlatMeans(tree, tuple, &scratch, row); }\n",
     set()),
]

SELF_TEST_CMAKE = (
    "add_library(udt_common STATIC src/common/status.cc)\n"
    "target_link_libraries(udt_common PUBLIC Threads::Threads)\n"
    "target_link_libraries(udt_storage PUBLIC udt_common)\n"
    "target_link_libraries(udt_core PUBLIC\n  udt_common)\n"
    "# target_link_libraries(udt_api PUBLIC udt_storage)\n"
    "target_link_libraries(udt_api PUBLIC udt_core Threads::Threads)\n"
)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "CMakeLists.txt"), "w",
                  encoding="utf-8") as f:
            f.write(SELF_TEST_CMAKE)
        for relpath, contents, _ in SELF_TEST_CASES:
            path = os.path.join(root, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        found = lint_tree(root)
        by_file = {}
        for relpath, _, rule, _ in found:
            by_file.setdefault(relpath, set()).add(rule)
        for relpath, _, expected in SELF_TEST_CASES:
            got = by_file.get(relpath, set())
            if expected - got:
                failures.append(
                    f"{relpath}: expected {sorted(expected - got)} to fire,"
                    f" got {sorted(got)}")
            if not expected and got:
                failures.append(
                    f"{relpath}: expected clean, but {sorted(got)} fired")
    if failures:
        print("self-test FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"self-test passed: {len(SELF_TEST_CASES)} seeded cases behaved")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repo root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    if violations:
        print(f"{len(violations)} convention violation(s):")
        for relpath, line, rule, message in violations:
            print(f"  {relpath}:{line}: [{rule}] {message}")
        return 1
    print("source conventions clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
