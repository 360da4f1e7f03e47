#!/usr/bin/env python3
"""vibe_lint: repo-invariant linter for the Parthenon-VIBE source tree.

Enforces the concurrency and determinism invariants that the type
system (and clang's thread-safety analysis) cannot express. Each rule
is a regex over a scoped subset of src/, with a pragma escape hatch for
audited exceptions:

    // vibe-lint: allow(<rule>) <justification>

A pragma exempts the contiguous non-blank block of code that follows it
(and its own line), so a single pragma can cover a multi-line
declaration. `vibe-lint: allow-file(<rule>)` anywhere in a file exempts
the whole file. Pragmas without a justification are themselves
findings: an exception nobody can audit is a rule violation with extra
steps.

Rule catalog (rationale lives with each rule below):

  owned-blocks          hot paths iterate ownedBlocks(), never blocks()
  raw-thread            no raw std::thread outside exec/ + rank_team
  task-instrumentation  task-path records use explicit (phase, rank)
                        record*At / parForAt attribution
  ambient-rank          no setCurrentRank() in package, solver or
                        tagger code (their sweep bodies run on pool
                        workers)
  ordered-containers    no unordered containers / rand() where
                        iteration order can feed reduction or message
                        order
  shadow-data-access    no raw data() pointers into block storage
                        outside materialize/unpack paths
  io-isolation          no file I/O (fstream/fopen) outside src/io/
                        (bench/ and tools/ are outside the linted tree)

Usage:
  vibe_lint.py [--root DIR]    lint DIR/src (default: repo root)
  vibe_lint.py --self-test     run the fixture suite under fixtures/
  vibe_lint.py --list-rules    print the rule catalog

Exit status: 0 clean, 1 findings (or fixture failures), 2 usage error.
"""

import argparse
import os
import re
import sys

SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

PRAGMA_ALLOW = re.compile(r"vibe-lint:\s*allow\(([a-z-]+)\)\s*(\S?)")
PRAGMA_ALLOW_FILE = re.compile(r"vibe-lint:\s*allow-file\(([a-z-]+)\)")
COMMENT = re.compile(r"//.*$")


class Rule:
    """One lintable invariant.

    scope:    path prefixes (relative to the scanned root) a file must
              match for the rule to apply.
    exempt:   path prefixes (or exact relative paths) never scanned.
    pattern:  violation regex, applied line-wise with comments
              stripped.
    """

    def __init__(self, name, scope, exempt, pattern, message, rationale):
        self.name = name
        self.scope = tuple(scope)
        self.exempt = tuple(exempt)
        self.pattern = re.compile(pattern)
        self.message = message
        self.rationale = rationale

    def applies_to(self, relpath):
        if not relpath.startswith(self.scope):
            return False
        return not relpath.startswith(self.exempt)


RULES = [
    Rule(
        name="owned-blocks",
        scope=("src/driver/", "src/pkg/", "src/mesh/"),
        exempt=(),
        pattern=r"(?:\.|->)\s*blocks\s*\(\)",
        message="iterate ownedBlocks(), not blocks()",
        rationale=(
            "Under rank sharding, blocks() includes storage-less "
            "Shadow replicas of blocks owned by other ranks; a hot "
            "path that touches them either crashes on empty arrays or "
            "- worse - silently double-computes after a migration "
            "relabel. Replicated structure code (remesh, the "
            "load-balance partitioner) is the audited exception."
        ),
    ),
    Rule(
        name="raw-thread",
        scope=("src/",),
        exempt=("src/exec/", "src/driver/rank_team."),
        pattern=r"std::j?thread\b(?!\s*::)",
        message=(
            "no raw std::thread outside exec/ and rank_team "
            "(use an ExecutionSpace, or the RankTeam driver threads)"
        ),
        rationale=(
            "Every thread in the system belongs to either an "
            "ExecutionSpace pool or the RankTeam; a stray std::thread "
            "bypasses the profiler/tracker owner-thread discipline, "
            "the nested-launch rule, and the team's failure "
            "propagation (markFailed), so it can deadlock a "
            "rendezvous collective nothing will ever wake."
        ),
    ),
    Rule(
        name="task-instrumentation",
        scope=("src/comm/ghost_exchange.cpp",),
        exempt=(),
        pattern=(
            r"\b(?:recordKernel|recordSerial|parFor|parForPack|"
            r"parReduce)\s*\("
        ),
        message=(
            "task-path instrumentation must use explicit (phase, rank) "
            "attribution: recordKernelAt / recordSerialAt / parForAt"
        ),
        rationale=(
            "Per-block exchange tasks run concurrently on pool "
            "workers; ambient-phase records (recordKernel, parFor) "
            "read the profiler's current phase and the context's "
            "current rank, which a neighboring task may be mutating - "
            "attribution silently lands in the wrong bucket and the "
            "overlap accounting (fig14) stops being trustworthy."
        ),
    ),
    Rule(
        name="ambient-rank",
        scope=("src/pkg/", "src/solver/", "src/driver/tagger.cpp"),
        exempt=(),
        pattern=r"\bsetCurrentRank\s*\(",
        message=(
            "no ambient-rank writes in sweep code: attribute with the "
            "block's rank through parForAt / parReduceAt / "
            "recordKernelAt / recordSerialAt"
        ),
        rationale=(
            "Whole-mesh sweeps (parForBlocks) run each block's body on "
            "a pool worker, concurrently with its neighbors. The "
            "context's current rank is one shared slot: writing it "
            "from a body is a data race, and on a classic mesh whose "
            "owned blocks carry several modeled ranks a neighbor's "
            "write lands this block's records on the wrong rank. The "
            "launcher itself leaves the ambient rank on the last "
            "block after the launch; remesh code in evolution_driver "
            "runs at serial points and is out of scope."
        ),
    ),
    Rule(
        name="coalesced-comm",
        scope=("src/",),
        exempt=(
            "src/comm/boundary_plan.cpp",
            "src/comm/ghost_exchange.cpp",
            "src/comm/rank_world.",
        ),
        pattern=r"(?:\.|->)\s*isend\s*\(",
        message=(
            "no direct RankWorld mailbox sends outside the boundary "
            "exchange (route boundary traffic through the "
            "BoundaryPlan / GhostExchange paths)"
        ),
        rationale=(
            "The fused BoundaryPlan path guarantees all boundary "
            "traffic per (src, dst, phase) travels as ONE coalesced "
            "message whose offset directory both endpoints derive "
            "independently; a stray per-face isend elsewhere would "
            "bypass the directory, break the message-count accounting "
            "(CycleStats.boundaryMessages), and reintroduce the "
            "O(faces) message storm the plan exists to remove. "
            "Non-boundary traffic (block migration payloads) is the "
            "audited exception: pragma it with the ChannelKind."
        ),
    ),
    Rule(
        name="ordered-containers",
        scope=("src/comm/", "src/driver/", "src/exec/", "src/solver/"),
        exempt=(),
        pattern=(
            r"std::unordered_(?:map|set)\b|\brand\s*\(|"
            r"std::random_shuffle\b"
        ),
        message=(
            "no unordered containers or rand() on reduction/message "
            "paths (hash/seed order is not deterministic across runs)"
        ),
        rationale=(
            "Bitwise rank/thread equivalence is the repo's core "
            "guarantee; it survives only because every fold and every "
            "message queue drains in a deterministic order. "
            "Hash-iteration order varies with libstdc++ version and "
            "pointer layout, rand() with global seed state - either "
            "feeding a reduction or send loop breaks equivalence in "
            "ways the tests can only catch probabilistically. "
            "Lookup-only maps are fine: pragma them with the reason."
        ),
    ),
    Rule(
        name="shadow-data-access",
        scope=("src/driver/", "src/comm/", "src/pkg/", "src/solver/"),
        exempt=(),
        pattern=(
            r"\b(?:cons0?|derived|dudt|flux)\s*\([^()]*\)\s*"
            r"(?:\.|->)\s*data\s*\(\)"
        ),
        message=(
            "no raw data() pointers into block storage outside "
            "materialize/unpack paths (mesh/)"
        ),
        rationale=(
            "A possibly-Shadow block's arrays may be empty or mid "
            "materialize; the accessor path is where the "
            "VIBE_AUDIT_OWNERSHIP backstop hooks in, and a cached raw "
            "pointer outlives both checks. Serialization and pack "
            "table construction (mesh/) are the audited exceptions."
        ),
    ),
    Rule(
        name="obs-isolation",
        scope=("src/driver/", "src/comm/", "src/pkg/", "src/solver/"),
        exempt=("src/driver/task_list.cpp",),
        pattern=(
            r"std::chrono::\w+_clock\b|\bstd::cout\b|\bstd::cerr\b|"
            r"\b(?:f|s)?printf\s*\("
        ),
        message=(
            "no ad-hoc std::chrono timing or stream logging in "
            "driver/comm/pkg/solver hot paths (record through "
            "obs/trace.hpp spans or the MetricsRegistry; pragma "
            "audited non-instrumentation clock uses)"
        ),
        rationale=(
            "Timing that bypasses the TraceRecorder is invisible to "
            "the timeline and the idle attribution, and a clock read "
            "or stream write on a task path costs even when "
            "observability is off - the recorder's contract is one "
            "relaxed atomic load per disabled site. Clock reads that "
            "are not instrumentation (peer-wait deadlines, the "
            "measured-FOM wall clock) are the audited exceptions; "
            "task_list.cpp is exempt because the executor IS the "
            "timing source the spans reuse."
        ),
    ),
    Rule(
        name="io-isolation",
        scope=("src/",),
        exempt=("src/io/",),
        pattern=r"std::(?:i|o)?fstream\b|\bfopen\s*\(|\bfreopen\s*\(",
        message=(
            "file I/O (fstream/fopen) belongs under src/io/ "
            "(bench/ and tools/ are outside the linted tree); "
            "pragma audited exceptions with the reason"
        ),
        rationale=(
            "Durability discipline lives in one place: the checkpoint "
            "subsystem writes to a temp file and atomically renames, "
            "CRC-frames every payload, and reports truncation/ "
            "corruption with a uniform error taxonomy. A stray "
            "ofstream elsewhere can tear files on a mid-write rank "
            "death and silently skip those guarantees - exactly what "
            "the recovery path must be able to rule out. Startup-time "
            "reads of user inputs (the parameter deck) are the "
            "audited exception."
        ),
    ),
]


def iter_source_files(root):
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                path = os.path.join(dirpath, name)
                yield path, os.path.relpath(path, root).replace(
                    os.sep, "/"
                )


def allowed_lines(lines, rule_name):
    """Line numbers (1-based) exempted by allow pragmas for rule_name.

    A pragma line exempts itself and the contiguous non-blank block of
    lines that follows it.
    """
    allowed = set()
    for i, line in enumerate(lines):
        match = PRAGMA_ALLOW.search(line)
        if not match or match.group(1) != rule_name:
            continue
        allowed.add(i + 1)
        j = i + 1
        while j < len(lines) and lines[j].strip():
            allowed.add(j + 1)
            j += 1
    return allowed


def bare_pragmas(lines, relpath):
    """Findings for allow pragmas that carry no justification."""
    findings = []
    for i, line in enumerate(lines):
        match = PRAGMA_ALLOW.search(line)
        if match and not match.group(2):
            findings.append(
                (
                    relpath,
                    i + 1,
                    "bare-pragma",
                    "allow() pragma without a justification",
                )
            )
    return findings


def strip_comments(lines):
    """Line-wise comment stripping (// and /* */), keeping line count."""
    stripped = []
    in_block = False
    for line in lines:
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            else:
                line_c = line.find("//", i)
                block_c = line.find("/*", i)
                if line_c >= 0 and (block_c < 0 or line_c < block_c):
                    out.append(line[i:line_c])
                    i = len(line)
                elif block_c >= 0:
                    out.append(line[i:block_c])
                    in_block = True
                    i = block_c + 2
                else:
                    out.append(line[i:])
                    i = len(line)
        stripped.append("".join(out))
    return stripped


def lint_file(path, relpath):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    code = strip_comments(lines)
    text = "\n".join(lines)
    findings = bare_pragmas(lines, relpath)
    for rule in RULES:
        if not rule.applies_to(relpath):
            continue
        file_allow = PRAGMA_ALLOW_FILE.search(text)
        if file_allow and file_allow.group(1) == rule.name:
            continue
        allowed = allowed_lines(lines, rule.name)
        for i, line in enumerate(code):
            if rule.pattern.search(line) and (i + 1) not in allowed:
                findings.append((relpath, i + 1, rule.name, rule.message))
    return findings


def lint_tree(root):
    findings = []
    for path, relpath in iter_source_files(root):
        findings.extend(lint_file(path, relpath))
    return findings


def self_test(fixtures_root):
    """Every rule has pass/ (must be clean) and fail/ (must trip
    exactly that rule) fixture trees; bare-pragma rides on the
    dedicated fixtures under fixtures/bare-pragma/."""
    failures = []
    rule_names = [rule.name for rule in RULES] + ["bare-pragma"]
    for name in rule_names:
        base = os.path.join(fixtures_root, name)
        if not os.path.isdir(base):
            failures.append(f"{name}: missing fixture directory {base}")
            continue
        passed = lint_tree(os.path.join(base, "pass"))
        if passed:
            failures.append(
                f"{name}: pass fixtures produced findings: {passed}"
            )
        failed = lint_tree(os.path.join(base, "fail"))
        if not failed:
            failures.append(f"{name}: fail fixtures produced no finding")
        wrong = [f for f in failed if f[2] != name]
        if wrong:
            failures.append(
                f"{name}: fail fixtures tripped other rules: {wrong}"
            )
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    if not failures:
        count = len(rule_names)
        print(f"self-test OK: {count} rules validated against fixtures")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.message}")
            print(f"    scope: {', '.join(rule.scope)}")
            print(f"    {rule.rationale}")
        return 0
    if args.self_test:
        return self_test(os.path.join(here, "fixtures"))

    root = args.root or os.path.normpath(os.path.join(here, "..", ".."))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"vibe_lint: no src/ under {root}", file=sys.stderr)
        return 2
    findings = lint_tree(root)
    for relpath, line, rule, message in findings:
        print(f"{relpath}:{line}: [{rule}] {message}")
    if findings:
        print(f"vibe_lint: {len(findings)} finding(s)")
        return 1
    print("vibe_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
