#!/usr/bin/env python3
"""hsgf_lint: fast, dependency-free project-invariant linter.

Enforces cross-file invariants clang-tidy cannot express (rule catalogue
and rationale in DESIGN.md §9):

  opcode-dispatch  every serve::MessageType member appears in the protocol
                   codec, the server dispatch, and the router dispatch.
  opcode-count     kNumMessageTypes matches the enum, the fuzz harness mode
                   map covers every opcode (modulus == kNumMessageTypes + 6),
                   and the kTypeNames metric table has one entry per opcode.
  metric-names     every metric registration/lookup literal follows the
                   "subsystem.dotted_lowercase" scheme.
  naked-new        no naked new/delete or raw pthread_ calls outside
                   src/util (RAII owns everything).
  naked-mmap       no raw mmap/munmap/madvise calls outside src/io and
                   src/gstore — the two subsystems whose RAII Mapping
                   types own every mapping's lifetime.
  raw-intrinsics   no vendor SIMD intrinsics (`_mm*_*`, NEON `vld1q_*`
                   family) or intrinsic headers (immintrin.h, arm_neon.h,
                   ...) outside src/simd — hot loops must go through the
                   simd::KernelTable so every vector path keeps a
                   bit-identical scalar twin and runtime dispatch.
  mutex-guard      no raw std:: synchronization primitives outside
                   src/util/mutex.h, and every util::Mutex/SharedMutex
                   member has at least one HSGF_* capability annotation
                   naming it in the same file.
  magic-once       each on-disk magic tag (HSGFSNAP/HSGFSMAP/HSGFDLTA/
                   HSGFCGRF/...) is defined in exactly one place.

Suppression is per-line and must carry a reason:

    util::Mutex local_mu;  // hsgf-lint: allow(mutex-guard) local lock,
                           // annotations apply to members only

Run from anywhere: paths resolve relative to the repository root (the
parent of this script's directory). Exit 0 = clean, 1 = violations,
2 = internal error. `--self-test` runs the built-in negative fixtures to
prove each rule still detects its violation class.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CODE_SCOPES = ("src", "tools", "bench")  # naked-new / metric-names scopes
SUBSYSTEMS = ("census", "extract", "serve", "router", "stream", "gstore",
              "io", "util", "bench")
METRIC_NAME_RE = re.compile(
    r"^(?:%s)\.[a-z0-9_][a-z0-9_.]*$" % "|".join(SUBSYSTEMS))
ALLOW_RE = re.compile(r"hsgf-lint:\s*allow\(([a-z-]+)\)\s*(\S.*)?")

# Modes in fuzz_protocol.cc beyond the per-opcode v1 responses: v1 request,
# v2/v3 request+response, ShardMap::Parse, and mode 0. Growing the protocol
# must grow the modulus with it.
FUZZ_EXTRA_MODES = 6


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        where = str(self.path)
        try:
            where = str(Path(self.path).relative_to(REPO_ROOT))
        except (ValueError, TypeError):
            pass
        return f"{where}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Returns (code, suppressions): `code` is `text` with comments and
    string/char literals blanked (newlines kept, so line numbers survive);
    `suppressions` maps line number -> set of allowed rule names (only
    suppressions that carry a reason count)."""
    out = []
    suppressions = {}
    i, n = 0, len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char
    comment = []

    def end_comment(at_line):
        body = "".join(comment)
        comment.clear()
        for match in ALLOW_RE.finditer(body):
            if match.group(2):  # reason is mandatory
                suppressions.setdefault(at_line, set()).add(match.group(1))

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                end_comment(line)
                state = "code"
                out.append("\n")
            else:
                comment.append(c)
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                end_comment(line)
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment.append(c)
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    if state in ("line_comment", "block_comment"):
        end_comment(line)
    return "".join(out), suppressions


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def suppressed(suppressions, line, rule):
    """A suppression applies to its own line or the line directly below it
    (the usual `// hsgf-lint: allow(...)` on-the-preceding-line idiom)."""
    return (rule in suppressions.get(line, ())
            or rule in suppressions.get(line - 1, ()))


def iter_sources(root, scopes, suffixes=(".h", ".cc")):
    for scope in scopes:
        base = root / scope
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path


def literal_strings(text):
    """Yields (line, literal) for every "..." in raw text outside comments."""
    code, _ = strip_code(text)
    # strip_code blanks string bodies, so pull literals from the raw text at
    # the positions where the stripped code still shows the quotes.
    for match in re.finditer(r'"((?:[^"\\\n]|\\.)*)"', text):
        start = match.start()
        if code[start] == '"':  # a real code-level string, not a comment
            yield line_of(text, start), match.group(1)


# ---------------------------------------------------------------------------
# Rules. Each takes a dict of preloaded files and returns [Violation].

def parse_message_types(protocol_text):
    enum = re.search(r"enum class MessageType[^{]*\{(.*?)\};", protocol_text,
                     re.S)
    if enum is None:
        return []
    return re.findall(r"\b(k[A-Z]\w*)\s*=\s*\d+", enum.group(1))


def rule_opcode_dispatch(files):
    violations = []
    protocol_h = files[REPO_ROOT / "src/serve/protocol.h"]
    members = parse_message_types(protocol_h)
    if not members:
        return [Violation("opcode-dispatch", REPO_ROOT / "src/serve/protocol.h",
                          1, "could not parse the MessageType enum")]
    dispatch_sites = [
        REPO_ROOT / "src/serve/protocol.cc",
        REPO_ROOT / "src/serve/server.cc",
        REPO_ROOT / "src/router/router.cc",
    ]
    for site in dispatch_sites:
        text = files[site]
        for member in members:
            if f"MessageType::{member}" not in text:
                violations.append(Violation(
                    "opcode-dispatch", site, 1,
                    f"MessageType::{member} is never handled here — new "
                    "opcodes must be dispatched (or explicitly rejected) "
                    "in every protocol switch"))
    return violations


def rule_opcode_count(files):
    violations = []
    protocol_h_path = REPO_ROOT / "src/serve/protocol.h"
    members = parse_message_types(files[protocol_h_path])
    count = len(members)
    declared = re.search(r"kNumMessageTypes\s*=\s*(\d+)",
                         files[protocol_h_path])
    if declared is None or int(declared.group(1)) != count:
        violations.append(Violation(
            "opcode-count", protocol_h_path, 1,
            f"kNumMessageTypes must equal the {count} MessageType members"))

    fuzz_path = REPO_ROOT / "fuzz/fuzz_protocol.cc"
    fuzz = files[fuzz_path]
    expected_modes = count + FUZZ_EXTRA_MODES
    modulus = re.search(r"data\[0\]\s*%\s*(\d+)", fuzz)
    if modulus is None or int(modulus.group(1)) != expected_modes:
        got = "no `data[0] % N` mode selector" if modulus is None else \
            f"mode modulus {modulus.group(1)}"
        violations.append(Violation(
            "opcode-count", fuzz_path,
            1 if modulus is None else line_of(fuzz, modulus.start()),
            f"{got}; the fuzz mode map must cover every opcode: expected "
            f"kNumMessageTypes + {FUZZ_EXTRA_MODES} = {expected_modes}"))

    server_path = REPO_ROOT / "src/serve/server.cc"
    server = files[server_path]
    table = re.search(r"kTypeNames\[kNumMessageTypes\]\s*=\s*\{(.*?)\};",
                      server, re.S)
    if table is None:
        violations.append(Violation(
            "opcode-count", server_path, 1,
            "kTypeNames[kNumMessageTypes] table not found"))
    else:
        entries = re.findall(r'"[^"]*"', table.group(1))
        if len(entries) != count:
            violations.append(Violation(
                "opcode-count", server_path, line_of(server, table.start()),
                f"kTypeNames has {len(entries)} entries for {count} opcodes "
                "(a missing entry is a nullptr metric name at runtime)"))
    return violations


def rule_metric_names(files):
    violations = []
    call_re = re.compile(r"\.(?:Counter|Gauge|Histogram|Span)\(\s*$")
    for path, text in files.items():
        if not str(path).startswith(tuple(str(REPO_ROOT / s)
                                          for s in CODE_SCOPES)):
            continue
        code, suppressions = strip_code(text)
        for match in re.finditer(
                r"\.(Counter|Gauge|Histogram|Span)\(\s*\"", code):
            line = line_of(code, match.start())
            if suppressed(suppressions, line, "metric-names"):
                continue
            # The literal body lives in the raw text at the same offset.
            quote = match.end() - 1
            end = text.index('"', quote + 1)
            name = text[quote + 1:end]
            if METRIC_NAME_RE.match(name):
                continue
            violations.append(Violation(
                "metric-names", path, line,
                f'metric name "{name}" does not match the '
                '"subsystem.dotted_lowercase" scheme '
                f"(subsystems: {', '.join(SUBSYSTEMS)})"))
    return violations


def rule_naked_new(files):
    violations = []
    util_prefix = str(REPO_ROOT / "src/util")
    patterns = [
        (re.compile(r"(?<![\w.])new\b(?!\s*\()"), "naked `new`"),
        (re.compile(r"(?<![\w.])delete\b"), "naked `delete`"),
        (re.compile(r"\bpthread_\w+"), "raw pthread_ call"),
    ]
    for path, text in files.items():
        spath = str(path)
        if not spath.startswith(tuple(str(REPO_ROOT / s)
                                      for s in CODE_SCOPES)):
            continue
        if spath.startswith(util_prefix):
            continue
        code, suppressions = strip_code(text)
        for pattern, label in patterns:
            for match in pattern.finditer(code):
                line = line_of(code, match.start())
                if suppressed(suppressions, line, "naked-new"):
                    continue
                before = code[max(0, match.start() - 16):match.start()]
                if label == "naked `delete`" and re.search(r"=\s*$", before):
                    continue  # `= delete;` deleted member functions
                violations.append(Violation(
                    "naked-new", path, line,
                    f"{label} outside src/util — use RAII owners "
                    "(unique_ptr, containers, util wrappers)"))
    return violations


def rule_naked_mmap(files):
    violations = []
    exempt_prefixes = (str(REPO_ROOT / "src/io"),
                       str(REPO_ROOT / "src/gstore"))
    pattern = re.compile(r"\b(mmap|munmap|madvise)\s*\(")
    for path, text in files.items():
        spath = str(path)
        if not spath.startswith(tuple(str(REPO_ROOT / s)
                                      for s in CODE_SCOPES)):
            continue
        if spath.startswith(exempt_prefixes):
            continue
        code, suppressions = strip_code(text)
        for match in pattern.finditer(code):
            line = line_of(code, match.start())
            if suppressed(suppressions, line, "naked-mmap"):
                continue
            violations.append(Violation(
                "naked-mmap", path, line,
                f"raw {match.group(1)}() outside src/io and src/gstore — "
                "mappings must be owned by an RAII Mapping type "
                "(io::Snapshot::Mapping, gstore::CompressedGraph::Mapping) "
                "so unmap is tied to object lifetime"))
    return violations


INTRINSIC_HEADER_RE = re.compile(
    r'#\s*include\s*[<"](immintrin|emmintrin|xmmintrin|pmmintrin|'
    r'tmmintrin|smmintrin|nmmintrin|wmmintrin|ammintrin|x86intrin|'
    r'x86gprintrin|avx\w*intrin|arm_neon|arm_sve)\.h[>"]')
# x86: every vector intrinsic is `_mm_*` / `_mm256_*` / `_mm512_*`. NEON has
# no single prefix; match the load/store/dup/reinterpret families — no
# kernel can exist without touching memory or materializing a register, so
# any NEON code outside src/simd trips at least one of these.
INTRINSIC_CALL_RE = re.compile(
    r"\b(_mm\d*_\w+|v(?:ld|st)\d+q?_\w+|vdupq?_n_\w+|vreinterpretq?_\w+)"
    r"\s*\(")


def rule_raw_intrinsics(files):
    violations = []
    simd_prefix = str(REPO_ROOT / "src/simd")
    for path, text in files.items():
        spath = str(path)
        if not spath.startswith(tuple(str(REPO_ROOT / s)
                                      for s in CODE_SCOPES)):
            continue
        if spath.startswith(simd_prefix):
            continue
        code, suppressions = strip_code(text)
        for pattern, label in ((INTRINSIC_HEADER_RE, "intrinsic header"),
                               (INTRINSIC_CALL_RE, "vendor intrinsic")):
            for match in pattern.finditer(code):
                line = line_of(code, match.start())
                if suppressed(suppressions, line, "raw-intrinsics"):
                    continue
                violations.append(Violation(
                    "raw-intrinsics", path, line,
                    f"{label} `{match.group(1)}` outside src/simd — add a "
                    "simd::KernelTable entry (with its scalar reference) "
                    "instead, so the vector path keeps a bit-identical "
                    "scalar twin and runtime dispatch"))
    return violations


MUTEX_MEMBER_RE = re.compile(
    r"\b(?:util::)?(Mutex|SharedMutex)\s+(\w+)\s*(?:;|HSGF_)")
RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b")
ANNOTATION_USER_RE = (
    r"HSGF_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES(?:_SHARED)?|"
    r"ACQUIRE(?:_SHARED)?|RELEASE(?:_SHARED|_GENERIC)?|TRY_ACQUIRE|"
    r"EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY)\(\s*(?:[\w.>-]+->)?%s\s*[,)]")


def rule_mutex_guard(files):
    violations = []
    exempt = {REPO_ROOT / "src/util/mutex.h",
              REPO_ROOT / "src/util/thread_annotations.h"}
    src_prefix = str(REPO_ROOT / "src")
    for path, text in files.items():
        if not str(path).startswith(src_prefix) or path in exempt:
            continue
        code, suppressions = strip_code(text)
        for match in RAW_SYNC_RE.finditer(code):
            line = line_of(code, match.start())
            if suppressed(suppressions, line, "mutex-guard"):
                continue
            violations.append(Violation(
                "mutex-guard", path, line,
                f"raw std::{match.group(1)} in src/ — use the annotated "
                "util::Mutex family (util/mutex.h) so the thread-safety "
                "analysis can see the lock"))
        for match in MUTEX_MEMBER_RE.finditer(code):
            name = match.group(2)
            line = line_of(code, match.start())
            if suppressed(suppressions, line, "mutex-guard"):
                continue
            user = re.compile(ANNOTATION_USER_RE % re.escape(name))
            if user.search(code):
                continue
            violations.append(Violation(
                "mutex-guard", path, line,
                f"{match.group(1)} `{name}` has no HSGF_GUARDED_BY/"
                "HSGF_REQUIRES/... user in this file — an unannotated lock "
                "protects nothing the analysis can check"))
    return violations


CHAR_MAGIC_RE = re.compile(
    r"\{\s*'(\w)'\s*,\s*'(\w)'\s*,\s*'(\w)'\s*,\s*'(\w)'\s*,"
    r"\s*'(\w)'\s*,\s*'(\w)'\s*,\s*'(\w)'\s*,\s*'(\w)'\s*\}")


def rule_magic_once(files):
    definitions = {}  # tag -> [(path, line)]
    src_prefix = str(REPO_ROOT / "src")
    for path, text in files.items():
        if not str(path).startswith(src_prefix):
            continue
        for match in CHAR_MAGIC_RE.finditer(text):
            tag = "".join(match.groups())
            if not tag.startswith("HSGF"):
                continue
            definitions.setdefault(tag, []).append(
                (path, line_of(text, match.start())))
        for line, literal in literal_strings(text):
            if re.fullmatch(r"HSGF[A-Z0-9]{4}", literal):
                definitions.setdefault(literal, []).append((path, line))
    violations = []
    for tag, sites in sorted(definitions.items()):
        if len(sites) == 1:
            continue
        where = ", ".join(
            f"{p.relative_to(REPO_ROOT)}:{ln}" for p, ln in sites)
        violations.append(Violation(
            "magic-once", sites[0][0], sites[0][1],
            f"magic tag {tag} defined {len(sites)} times ({where}) — "
            "on-disk format tags must have exactly one definition"))
    return violations


RULES = [
    rule_opcode_dispatch,
    rule_opcode_count,
    rule_metric_names,
    rule_naked_new,
    rule_naked_mmap,
    rule_raw_intrinsics,
    rule_mutex_guard,
    rule_magic_once,
]


def load_files(root):
    files = {}
    for path in iter_sources(root, CODE_SCOPES + ("fuzz",)):
        files[path] = path.read_text(encoding="utf-8", errors="replace")
    return files


def run_lint():
    required = [
        REPO_ROOT / "src/serve/protocol.h",
        REPO_ROOT / "src/serve/protocol.cc",
        REPO_ROOT / "src/serve/server.cc",
        REPO_ROOT / "src/router/router.cc",
        REPO_ROOT / "fuzz/fuzz_protocol.cc",
    ]
    files = load_files(REPO_ROOT)
    missing = [p for p in required if p not in files]
    if missing:
        for p in missing:
            print(f"hsgf_lint: required file missing: {p}", file=sys.stderr)
        return 2
    violations = []
    for rule in RULES:
        violations.extend(rule(files))
    for violation in violations:
        print(violation)
    if violations:
        print(f"hsgf_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"hsgf_lint: OK ({len(files)} files, {len(RULES)} rules)")
    return 0


# ---------------------------------------------------------------------------
# Self-test: every rule must still catch a synthetic violation, and the
# clean baseline fixtures must pass. Run by CI and ctest alongside the real
# lint so a regression in the linter itself cannot silently disable a gate.

def self_test():
    base = {
        REPO_ROOT / "src/serve/protocol.h": (
            "enum class MessageType : uint8_t {\n"
            "  kGetFeatures = 1,\n  kStats = 2,\n};\n"
            "inline constexpr int kNumMessageTypes = 2;\n"),
        REPO_ROOT / "src/serve/protocol.cc": (
            "MessageType::kGetFeatures; MessageType::kStats;\n"),
        REPO_ROOT / "src/serve/server.cc": (
            "MessageType::kGetFeatures; MessageType::kStats;\n"
            'const char* const kTypeNames[kNumMessageTypes] = {"a", "b"};\n'),
        REPO_ROOT / "src/router/router.cc": (
            "MessageType::kGetFeatures; MessageType::kStats;\n"),
        REPO_ROOT / "fuzz/fuzz_protocol.cc": (
            "const uint8_t mode = data[0] % 8;\n"),
    }

    def failing(rule, files, expect_rule):
        merged = dict(base)
        merged.update(files)
        got = [v for v in rule(merged) if v.rule == expect_rule]
        assert got, f"{expect_rule}: fixture not flagged"

    def clean(rule, files):
        merged = dict(base)
        merged.update(files)
        got = rule(merged)
        assert not got, f"unexpected violations: {[str(v) for v in got]}"

    clean(rule_opcode_dispatch, {})
    clean(rule_opcode_count, {})
    failing(rule_opcode_dispatch, {
        REPO_ROOT / "src/router/router.cc": "MessageType::kGetFeatures;\n",
    }, "opcode-dispatch")
    # A new opcode added without growing the fuzz mode map.
    failing(rule_opcode_count, {
        REPO_ROOT / "src/serve/protocol.h": (
            "enum class MessageType : uint8_t {\n"
            "  kGetFeatures = 1,\n  kStats = 2,\n  kNew = 3,\n};\n"
            "inline constexpr int kNumMessageTypes = 3;\n"),
    }, "opcode-count")
    failing(rule_opcode_count, {
        REPO_ROOT / "src/serve/server.cc": (
            "MessageType::kGetFeatures; MessageType::kStats;\n"
            'const char* const kTypeNames[kNumMessageTypes] = {"a"};\n'),
    }, "opcode-count")

    clean(rule_metric_names, {
        REPO_ROOT / "src/a.cc": 'm_.Counter("serve.requests_total");\n'
                                'm_.Histogram("serve.request_micros.");\n',
    })
    failing(rule_metric_names, {
        REPO_ROOT / "src/a.cc": 'm_.Counter("RequestsTotal");\n',
    }, "metric-names")
    failing(rule_metric_names, {
        REPO_ROOT / "src/a.cc": 'm_.Counter("frobnicator.count");\n',
    }, "metric-names")

    clean(rule_naked_new, {
        REPO_ROOT / "src/a.cc": "auto p = std::make_unique<int>(3);\n"
                                "X(const X&) = delete;\n"
                                "int new_columns = 0;\n"
                                "// a comment mentioning new and delete\n",
    })
    failing(rule_naked_new, {
        REPO_ROOT / "src/a.cc": "int* p = new int(3);\n",
    }, "naked-new")
    failing(rule_naked_new, {
        REPO_ROOT / "src/a.cc": "delete p;\n",
    }, "naked-new")
    failing(rule_naked_new, {
        REPO_ROOT / "src/a.cc": "pthread_create(&t, nullptr, fn, arg);\n",
    }, "naked-new")
    clean(rule_naked_new, {
        REPO_ROOT / "src/a.cc": (
            "int* p = new int(3);"
            "  // hsgf-lint: allow(naked-new) fixture with a reason\n"),
    })

    clean(rule_naked_mmap, {
        REPO_ROOT / "src/io/a.cc": "void* p = mmap(nullptr, n, PROT_READ, "
                                   "MAP_PRIVATE, fd, 0);\n",
        REPO_ROOT / "src/gstore/b.cc": "munmap(data, size);\n"
                                       "madvise(data, size, MADV_RANDOM);\n",
        REPO_ROOT / "src/c.cc": "// mmap is only mentioned in a comment\n",
    })
    failing(rule_naked_mmap, {
        REPO_ROOT / "src/serve/a.cc": "void* p = mmap(nullptr, n, PROT_READ, "
                                      "MAP_PRIVATE, fd, 0);\n",
    }, "naked-mmap")
    failing(rule_naked_mmap, {
        REPO_ROOT / "tools/t.cc": "munmap(p, n);\n",
    }, "naked-mmap")
    failing(rule_naked_mmap, {
        REPO_ROOT / "src/stream/s.cc": "madvise(p, n, MADV_WILLNEED);\n",
    }, "naked-mmap")
    clean(rule_naked_mmap, {
        REPO_ROOT / "src/serve/a.cc": (
            "munmap(p, n);"
            "  // hsgf-lint: allow(naked-mmap) fixture with a reason\n"),
    })

    clean(rule_raw_intrinsics, {
        REPO_ROOT / "src/simd/kernels_avx2.cc": (
            "#include <immintrin.h>\n"
            "__m256i v = _mm256_loadu_si256(p);\n"),
        REPO_ROOT / "src/simd/kernels_neon.cc": (
            "#include <arm_neon.h>\n"
            "uint8x16_t v = vld1q_u8(p);\n"),
        REPO_ROOT / "src/core/a.cc": (
            "// _mm256_cmpeq_epi8 is only mentioned in a comment\n"
            "k.compare_bytes(a, b, n);\n"),
    })
    failing(rule_raw_intrinsics, {
        REPO_ROOT / "src/core/a.cc": "#include <immintrin.h>\n",
    }, "raw-intrinsics")
    failing(rule_raw_intrinsics, {
        REPO_ROOT / "src/core/a.cc": "__m128i v = _mm_loadu_si128(p);\n",
    }, "raw-intrinsics")
    failing(rule_raw_intrinsics, {
        REPO_ROOT / "tools/t.cc": "uint8x16_t v = vld1q_u8(p);\n",
    }, "raw-intrinsics")
    failing(rule_raw_intrinsics, {
        REPO_ROOT / "bench/b.cc": "#include <arm_neon.h>\n",
    }, "raw-intrinsics")
    clean(rule_raw_intrinsics, {
        REPO_ROOT / "src/core/a.cc": (
            "__m128i v = _mm_setzero_si128();"
            "  // hsgf-lint: allow(raw-intrinsics) fixture with a reason\n"),
    })

    clean(rule_mutex_guard, {
        REPO_ROOT / "src/a.h": (
            "class C {\n  mutable util::Mutex mu_;\n"
            "  int x_ HSGF_GUARDED_BY(mu_);\n};\n"),
    })
    failing(rule_mutex_guard, {
        REPO_ROOT / "src/a.h": "class C {\n  std::mutex mu_;\n};\n",
    }, "mutex-guard")
    failing(rule_mutex_guard, {
        REPO_ROOT / "src/a.h": "class C {\n  util::Mutex mu_;\n  int x_;\n};\n",
    }, "mutex-guard")
    # Suppression without a reason does not count.
    failing(rule_mutex_guard, {
        REPO_ROOT / "src/a.h": (
            "class C {\n  util::Mutex mu_;  // hsgf-lint: allow(mutex-guard)\n"
            "};\n"),
    }, "mutex-guard")

    clean(rule_magic_once, {
        REPO_ROOT / "src/io/x.h":
            "constexpr char kMagic[8] = {'H','S','G','F','S','N','A','P'};\n",
    })
    failing(rule_magic_once, {
        REPO_ROOT / "src/io/x.h":
            "constexpr char kMagic[8] = {'H','S','G','F','S','N','A','P'};\n",
        REPO_ROOT / "src/io/y.cc": 'const std::string magic = "HSGFSNAP";\n',
    }, "magic-once")
    # The cgraph container tag is subject to the same single-definition rule.
    failing(rule_magic_once, {
        REPO_ROOT / "src/gstore/x.h":
            "constexpr char kMagic[8] = {'H','S','G','F','C','G','R','F'};\n",
        REPO_ROOT / "src/gstore/y.cc": 'CheckMagic(bytes, "HSGFCGRF");\n',
    }, "magic-once")

    print("hsgf_lint: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in rule fixtures instead of "
                             "linting the tree")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
