#!/usr/bin/env python3
"""DPS-specific lint pass (registered as ctest `Lint.DpsLint`).

Checks project invariants that neither the compiler nor the generic
sanitizers can express:

  1. token-identify   every SimpleToken/ComplexToken subclass carries
                      DPS_IDENTIFY(...) in the same file, so the wire
                      decoder can always find its factory.
  2. raw-primitives   src/ uses dps::Mutex / dps::MutexLock / dps::CondVar
                      (the Clang-thread-safety-annotated wrappers in
                      util/thread_annotations.hpp) instead of the raw std::
                      types, and spawns std::thread only from the known
                      thread-owning translation units.
  3. include-cpp      no `#include` of a .cpp file anywhere.
  4. tsan-coverage    every gtest suite name in tests/ is matched by the
                      tsan testPreset filter in CMakePresets.json, or is
                      explicitly opted out below with a reason. This is the
                      regression guard for the hand-enumerated filter regex:
                      a new suite that nobody lists is a lint failure, not a
                      silent gap in sanitizer coverage.
  5. live-allowlists  every RAW_SYNC_ALLOWLIST / THREAD_SPAWNER_ALLOWLIST
                      entry still names an existing file that still uses
                      the primitive it is exempted for. A dead entry is a
                      finding: a future file reusing the path would inherit
                      an exemption whose rationale no longer applies (same
                      spirit as the dead-tsan-filter rule).

There is no trace-gating rule: the flight recorder is compiled into every
build, and obs::Trace::set_enabled is its only switch.

Exit status 0 = clean; 1 = findings (printed one per line).
"""

import argparse
import json
import os
import re
import sys

# --- rule 2 allowlists ------------------------------------------------------

# Files allowed to name raw std:: synchronization primitives.
RAW_SYNC_ALLOWLIST = {
    # Defines the annotated wrappers themselves.
    "src/util/thread_annotations.hpp",
    # Reader/writer lock on the life-app band registry; the wrapper has no
    # shared mode (and clang TSA handles std::shared_mutex natively).
    "src/apps/life.hpp",
}

# Translation units that own threads (spawn + join). Everything else in src/
# must receive work through an ExecDomain or a fabric, not spawn directly.
THREAD_SPAWNER_ALLOWLIST = {
    "src/core/cluster.cpp",
    "src/core/cluster.hpp",       # failure-monitor thread member
    "src/core/controller.cpp",
    "src/kernel/kernel.cpp",
    "src/kernel/name_server.cpp",
    "src/net/chaos_fabric.cpp",
    "src/net/chaos_fabric.hpp",   # delay-delivery thread member
    "src/net/shm_fabric.cpp",
    "src/net/shm_fabric.hpp",     # inbox rx thread member
    "src/net/tcp_transport.cpp",
    "src/net/tcp_transport.hpp",  # acceptor/receiver/sender thread members
    "src/sim/domain.cpp",
    "src/sim/scheduler.cpp",
}

RAW_SYNC_PATTERN = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_THREAD_PATTERN = re.compile(r"std::(thread|jthread)\b")

# --- rule 4 opt-outs --------------------------------------------------------

# Suites deliberately absent from the tsan filter. Every entry needs a
# reason; an uncovered suite without one fails the lint. Keep this honest:
# "slow" is only a valid reason when an equivalent concurrent path is
# already covered by another tsan'd suite.
TSAN_OPT_OUT = {
    # Single-threaded serialization / pure-logic unit suites: no threads,
    # nothing for tsan to observe that the default build doesn't already.
    "Fnv": "hash function unit test, single-threaded",
    "Ptr": "intrusive-pointer unit test, single-threaded",
    "Registry": "type-registry lookup unit test, single-threaded",
    "SimpleTokens": "serialization round-trip, single-threaded",
    "ComplexTokens": "serialization round-trip, single-threaded",
    "SizedEncode": "encoder sizing unit test, single-threaded",
    "Wire": "wire-format unit test, single-threaded",
    "Envelope": "envelope encode/decode unit test, single-threaded",
    "FuzzDecode": "decoder robustness on crafted bytes, single-threaded",
    "Seeds/FuzzSeed": "parameterized decoder corpus, single-threaded",
    "Matrix": "dense-matrix helper unit test, single-threaded",
    "Stopwatch": "clock helper unit test, single-threaded",
    "Mapping": "thread-mapping arithmetic unit test, single-threaded",
    "GraphValidation": "graph shape checks raise before any thread starts",
    "Validation": "graph shape checks raise before any thread starts",
    "Graphviz": "dot-format printer unit test, single-threaded",
    "Error": "error type unit test, single-threaded",
    "TraceQuery": "trace-buffer query logic on synthetic events, no threads",
    # Whole-application suites: the engine paths they exercise (workers,
    # flow control, split/merge, reliable delivery) are already under tsan
    # via ToUpper/FlowControl/StreamOp/Nesting/MultiPath/Chaos/Checkpoint/
    # Reentrancy/ShutdownStress; these apps multiply runtime (minutes each
    # under tsan on one core) without adding new concurrent structure.
    "Life": "app-level; engine concurrency covered by tsan'd core suites",
    "LifeApp": "app-level; engine concurrency covered by tsan'd core suites",
    "LifeFast": "leaf-kernel bit-identity and backend-registry unit tests, "
                "single-threaded",
    "Sweep/LifeGraphParam": "app-level parameterization of the Life suite",
    "Lu": "app-level; engine concurrency covered by tsan'd core suites",
    "LuApp": "app-level; engine concurrency covered by tsan'd core suites",
    "Sweep/LuSizes": "app-level parameterization of the Lu suite",
    "Sweep/LuVariant": "app-level parameterization of the Lu suite",
    "MatMulApp": "app-level; engine concurrency covered by tsan'd core suites",
    "Sweep/MatMulParam": "app-level parameterization of the MatMul suite",
    "VideoApp": "app-level; engine concurrency covered by tsan'd core suites",
    "StreamApp": "app-level; the flushTokens engine path it leans on is "
                 "tsan'd via the StreamOp suite",
    "RingApp": "app-level; engine concurrency covered by tsan'd core suites",
    "Seeds/RandomPipeline": "randomized app graphs; engine covered by "
                            "tsan'd core suites",
    "LoadBalancing": "route statistics over engine paths tsan'd elsewhere",
    "Services": "cross-app graph calls ride the same tsan'd controller path",
    "Spmd": "launches subprocesses; tsan must target each process, not the "
            "test harness",
    "ErrorPaths": "error propagation over engine paths tsan'd elsewhere",
    "Lint": "python lint process, not a C++ test binary",
}

TEST_MACRO = re.compile(
    r"^\s*(?:TEST|TEST_F|TEST_P|TYPED_TEST|TYPED_TEST_P)\s*\(\s*"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*,",
    re.M,
)
INSTANTIATE_MACRO = re.compile(
    r"^\s*INSTANTIATE_TEST_SUITE_P\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*,",
    re.M,
)

CPP_EXTS = (".hpp", ".cpp", ".h", ".cc", ".hh")


def iter_sources(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            # Negative-compile fixtures violate the rules on purpose.
            dirnames[:] = [d for d in dirnames
                           if d not in ("static_checks", "build")]
            for fn in sorted(filenames):
                if fn.endswith(CPP_EXTS):
                    path = os.path.join(dirpath, fn)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read()


def strip_comments(text):
    """Blank out // and /* */ comment bodies, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c in "\"'":
            # Skip string/char literals so "std::mutex" in a message is fine.
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:min(j + 1, n)])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --- rule 1: token-identify -------------------------------------------------

TOKEN_BASE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:final\s*)?:"
    r"[^({;]*\bpublic\s+(?:dps::)?(?:SimpleToken|ComplexToken)\b"
)


def check_token_identify(root, findings):
    for rel in iter_sources(root, ["src", "tests", "examples", "bench"]):
        text = read(root, rel)
        for m in TOKEN_BASE.finditer(text):
            name = m.group(1)
            if not re.search(r"DPS_IDENTIFY\s*\(\s*%s\s*\)" % re.escape(name),
                             text):
                line = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{rel}:{line}: token-identify: token class '{name}' has "
                    f"no DPS_IDENTIFY({name}) — the decoder cannot "
                    f"instantiate it from the wire")


# --- rule 2: raw-primitives -------------------------------------------------

def check_raw_primitives(root, findings):
    for rel in iter_sources(root, ["src"]):
        text = strip_comments(read(root, rel))
        if rel not in RAW_SYNC_ALLOWLIST:
            for lineno, line in enumerate(text.splitlines(), 1):
                m = RAW_SYNC_PATTERN.search(line)
                if m:
                    findings.append(
                        f"{rel}:{lineno}: raw-primitives: std::{m.group(1)} — "
                        f"use dps::Mutex/MutexLock/CondVar from "
                        f"util/thread_annotations.hpp so clang TSA sees it")
        if rel not in THREAD_SPAWNER_ALLOWLIST:
            for lineno, line in enumerate(text.splitlines(), 1):
                m = RAW_THREAD_PATTERN.search(line)
                if m:
                    findings.append(
                        f"{rel}:{lineno}: raw-primitives: std::{m.group(1)} "
                        f"outside the thread-spawner allowlist — dispatch "
                        f"through an ExecDomain, or add the file to "
                        f"THREAD_SPAWNER_ALLOWLIST with a rationale")


# --- rule 3: include-cpp ----------------------------------------------------

INCLUDE_CPP = re.compile(r'^\s*#\s*include\s*[<"][^<">]*\.cpp[">]')


def check_include_cpp(root, findings):
    for rel in iter_sources(root, ["src", "tests", "examples", "bench"]):
        for lineno, line in enumerate(read(root, rel).splitlines(), 1):
            if INCLUDE_CPP.match(line):
                findings.append(
                    f"{rel}:{lineno}: include-cpp: #include of a .cpp file — "
                    f"add the file to the build instead")


# --- rule 4: tsan-coverage --------------------------------------------------

def tsan_filter_names(root, findings):
    with open(os.path.join(root, "CMakePresets.json"), encoding="utf-8") as f:
        presets = json.load(f)
    for tp in presets.get("testPresets", []):
        if tp.get("name") == "tsan":
            regex = tp.get("filter", {}).get("include", {}).get("name", "")
            m = re.fullmatch(r"\^\(([^)]*)\)\\\.", regex)
            if not m:
                findings.append(
                    "CMakePresets.json: tsan-coverage: tsan filter regex is "
                    "not the expected ^(A|B|...)\\. shape; update "
                    "scripts/dps_lint.py if it was restructured")
                return regex, set()
            return regex, set(m.group(1).split("|"))
    findings.append("CMakePresets.json: tsan-coverage: no tsan testPreset")
    return "", set()


def check_tsan_coverage(root, findings):
    _, covered = tsan_filter_names(root, findings)
    suites = set()
    for rel in iter_sources(root, ["tests"]):
        text = read(root, rel)
        plain = set(TEST_MACRO.findall(text))
        suites |= plain
        for prefix, base in INSTANTIATE_MACRO.findall(text):
            suites.add(f"{prefix}/{base}")
            # The un-instantiated TEST_P base never appears as a ctest name.
            suites.discard(base)
    for suite in sorted(suites):
        if suite in covered:
            continue
        if suite in TSAN_OPT_OUT:
            continue
        findings.append(
            f"tests/: tsan-coverage: gtest suite '{suite}' is neither "
            f"matched by the tsan testPreset filter in CMakePresets.json "
            f"nor opted out in scripts/dps_lint.py TSAN_OPT_OUT (add it to "
            f"one of the two, with a reason if opting out)")
    stale = set(TSAN_OPT_OUT) - suites - {"Lint"}
    for suite in sorted(stale & covered):
        findings.append(
            f"scripts/dps_lint.py: tsan-coverage: '{suite}' is both in the "
            f"tsan filter and in TSAN_OPT_OUT; remove one")
    # Dead entries (the suite no longer exists at all) also rot the opt-out
    # list: a future suite reusing the name would inherit an exemption whose
    # recorded reason no longer applies.
    for suite in sorted(stale - covered):
        findings.append(
            f"scripts/dps_lint.py: tsan-coverage: TSAN_OPT_OUT entry "
            f"'{suite}' names a gtest suite that no longer exists; remove it")
    for suite in sorted(covered - suites):
        findings.append(
            f"CMakePresets.json: tsan-coverage: tsan filter entry '{suite}' "
            f"names a gtest suite that no longer exists; remove it")


# --- rule 5: live-allowlists ------------------------------------------------

def check_live_allowlists(root, findings):
    src_files = set(iter_sources(root, ["src"]))
    for rel in sorted(RAW_SYNC_ALLOWLIST):
        if rel not in src_files:
            findings.append(
                f"scripts/dps_lint.py: live-allowlists: RAW_SYNC_ALLOWLIST "
                f"entry '{rel}' names a file that no longer exists; remove "
                f"it")
        elif not RAW_SYNC_PATTERN.search(strip_comments(read(root, rel))):
            findings.append(
                f"scripts/dps_lint.py: live-allowlists: RAW_SYNC_ALLOWLIST "
                f"entry '{rel}' no longer uses any raw std:: sync primitive; "
                f"remove the exemption so it cannot be inherited silently")
    for rel in sorted(THREAD_SPAWNER_ALLOWLIST):
        if rel not in src_files:
            findings.append(
                f"scripts/dps_lint.py: live-allowlists: "
                f"THREAD_SPAWNER_ALLOWLIST entry '{rel}' names a file that "
                f"no longer exists; remove it")
        elif not RAW_THREAD_PATTERN.search(strip_comments(read(root, rel))):
            findings.append(
                f"scripts/dps_lint.py: live-allowlists: "
                f"THREAD_SPAWNER_ALLOWLIST entry '{rel}' no longer spawns "
                f"std::thread/std::jthread; remove the exemption so it "
                f"cannot be inherited silently")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    root = args.root

    findings = []
    check_token_identify(root, findings)
    check_raw_primitives(root, findings)
    check_include_cpp(root, findings)
    check_tsan_coverage(root, findings)
    check_live_allowlists(root, findings)

    if findings:
        for f in findings:
            print(f)
        print(f"dps_lint: {len(findings)} finding(s)")
        return 1
    print("dps_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
