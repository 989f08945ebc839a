#!/usr/bin/env python3
"""envy-analyze: the eNVy tree's static checker.

Parses every file under src/ into tokens and every function into a
statement-level control-flow tree, then checks the project invariants
the compiler cannot see (docs/STATIC_ANALYSIS.md §4 explains each
rule).  Suppress one occurrence with
`// envy-analyze: allow(<rule>) reason` on the same line or the line
directly above; unused suppressions are themselves findings.

  journal-before-mmap     a MetaJournal append precedes every write
                          into the store-file mapping, on all paths
  lock-discipline         no blocking call, runner submission or
                          foreign cv wait under a scoped lock; no flash
                          program/erase under a ShardLock
  crash-point-unique      one declaration site per crash point name
  crash-point-registered  every crash point is in the inventory
  crash-point-coverage    every mutating function of the four mutation
                          files declares a crash point
  crash-point-reachable   every inventory point is reachable from an
                          EnvyStore/Controller/ShadowManager entry
  trace-event-unique      one call site per ENVY_TRACE event name
  trace-event-registered  every event name is in the inventory
  panic-prefix            panic/fatal messages start "subsystem: "
  no-raw-alloc            no new / malloc / calloc / realloc
  no-naked-thread         no std::thread/jthread/async outside the
                          thread-owning components
  no-per-byte-page-loop   no per-byte CUI programming outside the chip
  no-raw-mmap             no mapping/durability syscall outside
                          src/persist/
  typed-id                no raw-integer page/slot/seg parameter

The token rules run on this file's tokenizer whatever the frontend;
comments, string contents and preprocessor lines never match.

Frontends (--frontend auto|internal|libclang) build the function IR:

  internal   a dependency-free C++ tokenizer + function extractor +
             statement-level CFG builder in this file.  Always
             available; what ctest runs.
  libclang   the same IR lowered from real clang ASTs via the
             `clang.cindex` python binding and compile_commands.json.
             Used in CI where a pinned libclang is installed; falls
             back to internal (with a note) when the binding or the
             compilation database is missing.

--self-test runs the same scan over the fixture tree in
tests/analyze/ (laid out like the repo: src/, with its own inventories)
and compares each file's findings with its `// expect-finding: <rule>`
lines.

Exit status: 0 clean, 1 findings, 2 usage or internal errors.
"""

import argparse
import os
import re
import sys

RULES = (
    "journal-before-mmap",
    "lock-discipline",
    "crash-point-unique",
    "crash-point-registered",
    "crash-point-coverage",
    "crash-point-reachable",
    "trace-event-unique",
    "trace-event-registered",
    "panic-prefix",
    "no-raw-alloc",
    "no-naked-thread",
    "no-per-byte-page-loop",
    "no-raw-mmap",
    "typed-id",
)

# ---- rule configuration (the repo-specific protocol knowledge) -----

# Rule journal-before-mmap: classes whose methods write through to the
# store-file mapping and therefore owe the journal a barrier first.
# BankBacking (it orders map-byte vs cell-bytes internally) and the
# StoreFile superblock (its valid flag IS the commit record of store
# creation) are left out by the documented contract of
# docs/PERSISTENCE.md.
JOURNAL_CLASSES = ("FlashMetaView", "PersistBackend")
# Calls that append to / sync the MetaJournal.  A bare barrier() is
# FlashMetaView's own journal hook; chains whose base mentions the
# journal cover PersistBackend (journal_.flush() etc.).
JOURNAL_CALL_NAMES = ("flush", "commit", "checkpoint", "appendRecord",
                      "createFresh", "replay",
                      # Epoch-pipeline entry points (PR 10): a group
                      # flush or an image checkpoint IS a journal
                      # append, so paths through them are barriered.
                      "syncOnly", "checkpointFromImage", "epochFlush")
JOURNAL_BARE_CALLS = ("barrier",)
# Calls / assignments that mutate the store-file mapping.
STORE_WRITE_CALLS = ("storeU32", "storeU64", "memset", "memcpy",
                     "markValid", "writeSuperblock")
# LHS chains that write the mapped segment-metadata span directly,
# e.g. `meta(seg)[StoreFile::segSpecFailedOff] = 1`.
STORE_WRITE_LHS = ("meta",)

# Rule lock-discipline: how a locked region starts.  ShardLock is
# tracked separately from the plain mutex wrappers: it admits the
# usual blocking checks AND the flash-under-shard check below.
LOCK_DECL_TYPES = ("MutexLock", "lock_guard", "unique_lock",
                   "scoped_lock", "ShardLock")
SHARD_LOCK_TYPES = ("ShardLock",)
# ...and what must never run inside one.
BLOCKING_SYSCALLS = ("fdatasync", "fsync", "msync", "pread", "pwrite",
                     "read", "write", "sleep", "usleep", "nanosleep")
# read/write are only blocking syscalls when they are NOT member
# calls (SramArray::write is a memory copy); member calls named
# submit are ParallelRunner submissions.
BLOCKING_MEMBER_CALLS = ("submit",)
# Condition-variable waits release the mutex they are handed, but a
# wait while holding ANY scoped lock still parks the thread with that
# scope open.  The exceptions each wait on a mutex that is the only
# lock their scope holds, so the wait releases it itself:
CV_WAIT_CALLS = ("wait", "wait_for", "wait_until")
EXEMPT_CVS = (
    # CleanerPool::cv_ (the doze cv) and Controller::roomCv_ (the
    # backpressure cv) wait on dedicated doze mutexes at the bottom
    # of the lock order that guard nothing else.
    "cv_", "roomCv_",
    # ParallelRunner's cvs: each wait releases mutex_ (see the
    # predicate-loop comment in src/envysim/parallel.cc).
    "queueSpace_", "queueWork_", "allDone_",
    # The serve layer (docs/SERVING.md §3): the loopback pipe's
    # dataCv_ on the pipe mutex, the server's workCv_ on the
    # admission queue mutex, its commitCv_ on the commit-queue mutex,
    # a ResponseWriter's drainCv_ on that connection's writer mutex.
    "dataCv_", "workCv_", "commitCv_", "drainCv_",
    # The commit pipeline (docs/PERSISTENCE.md §group-commit):
    # doneCv_ parks persistFlush() callers on the pipeline's leaf
    # mutex until their epoch lands.
    "doneCv_",
)
# Journal leaf locks (docs/INTERNALS.md lock order): journalMu_ sits
# at the bottom of the order and *deliberately* covers write(2) /
# pwrite / fdatasync — sequencing of the journal file IS the lock's
# job, so serial stores, the commit pipeline and the flash
# write-through barrier all append through one ordered path.  A
# scoped lock whose constructor argument names one of these is exempt
# from the blocking-syscall check (docs/PERSISTENCE.md §group-commit).
JOURNAL_LEAF_LOCKS = ("journalMu_",)
# Flash device entry points that program or erase the array.  Under a
# shard lock these deadlock-by-design: shard locks serialize one
# page's translation, device mutation runs under the structural lock
# (docs/INTERNALS.md lock-order table).
FLASH_DEVICE_CALLS = ("appendPage", "eraseSegment")

# Rule crash-point-reachable: public API surfaces a test or bench
# drives directly.  ShadowManager is the paper's transaction API and
# owns the txn.* points.
ENTRY_CLASSES = ("EnvyStore", "Controller", "ShadowManager")

# The canonical inventories: the string literals of the
# `std::vector<std::string>{...}` initializer in each file.
CRASH_INVENTORY = os.path.join("src", "faults", "crash_point.cc")
TRACE_INVENTORY = os.path.join("src", "obs", "trace.cc")

# Rule crash-point-coverage: calls that mutate durable state (flash
# contents or the page table), and the files whose functions must
# declare a crash point when they make one.
MUTATING_CALLS = ("appendPage", "tryAppendPage", "appendShadow",
                  "invalidatePage", "convertToShadow", "eraseSegment",
                  "mapToFlash", "mapToSram", "popTail",
                  "commitRotation", "beginCleanRecord")
MUTATION_FILES = tuple(os.path.join("src", *p) for p in (
    ("envy", "controller.cc"), ("envy", "cleaner.cc"),
    ("envy", "wear_leveler.cc"), ("txn", "shadow.cc")))

# Rule panic-prefix.
PANIC_MACROS = ("ENVY_PANIC", "ENVY_FATAL")
PANIC_PREFIX = re.compile(r'"[a-z][a-z0-9_-]*: ')

# Rule no-raw-alloc: `new` anywhere, these when called.
RAW_ALLOC_CALLS = ("malloc", "calloc", "realloc")

# Rule no-naked-thread: the files allowed to create threads, each
# with its isolation argument in its header: the experiment fan-out
# runner, the background cleaner pool, the group-commit pipeline's
# epoch thread (docs/PERSISTENCE.md §group-commit) and the serve
# front end's reader/worker and loadgen client threads, whose
# lifecycles ParallelRunner's bounded task queue does not fit
# (docs/SERVING.md).
THREAD_EXEMPT = tuple(os.path.join("src", *p) for p in (
    ("envysim", "parallel.hh"), ("envysim", "parallel.cc"),
    ("envy", "cleaner_pool.hh"), ("envy", "cleaner_pool.cc"),
    ("persist", "commit_pipeline.hh"), ("persist", "commit_pipeline.cc"),
    ("serve", "server.hh"), ("serve", "server.cc"),
    ("serve", "loadgen.cc")))

# Rule no-per-byte-page-loop: the chip model defines the per-byte
# CUI; everyone else goes through the bank's bulk page path.
PER_BYTE_EXEMPT = tuple(os.path.join("src", "flash", n)
                        for n in ("flash_chip.hh", "flash_chip.cc"))

# Rule no-raw-mmap: mapping and durability syscalls live in
# src/persist/ only.
RAW_MMAP_CALLS = ("mmap", "munmap", "msync", "fsync", "fdatasync",
                  "fallocate", "ftruncate")
MMAP_EXEMPT_PREFIX = os.path.join("src", "persist") + os.sep

# Rule typed-id: raw integer spellings and the reserved id names.
RAW_INT_TYPES = re.compile(
    r"^(?:const\s+)?(?:std::)?"
    r"(?:uint32_t|uint64_t|size_t|unsigned(?:\s+(?:int|long))?)"
    r"\s*&?$")
TYPED_ID_NAMES = ("page", "slot", "seg")

ALLOW = re.compile(r"//\s*envy-analyze:\s*allow\(([a-z-]+)\)\s*\S")

# Tokens that may sit between a function's return type and its name.
DECL_PUNCT = ("::", "*", "&", "&&", "<", ">", ">>", ",", "~")

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "try", "catch", "throw",
    "new", "delete", "sizeof", "alignof", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "operator",
    "template", "typename", "using", "namespace", "class", "struct",
    "enum", "union", "public", "private", "protected", "static",
    "const", "constexpr", "inline", "virtual", "override", "final",
    "noexcept", "explicit", "friend", "typedef", "mutable", "auto",
    "void", "bool", "char", "int", "long", "short", "float", "double",
    "unsigned", "signed",
}


# ---- tokenizer -----------------------------------------------------

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # "id", "num", "str", "punct"
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text!r}@{self.line}"


TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<lcomment>//[^\n]*)
  | (?P<bcomment>/\*.*?\*/)
  | (?P<str>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<num>(?:0[xX][0-9a-fA-F']+|\d[\d']*(?:\.\d+)?)
      (?:[uUlLfF]*))
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>::|->\*?|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||
      [-+*/%&|^!~=<>]=?|[(){}\[\];,.?:#\\])
""", re.VERBOSE | re.DOTALL)


def tokenize(text):
    """C++ token stream with line numbers; comments and preprocessor
    lines dropped (but see scan_allows for the comments we keep)."""
    toks = []
    line = 1
    pos = 0
    n = len(text)
    while pos < n:
        m = TOKEN_RE.match(text, pos)
        if not m:
            pos += 1  # stray byte: skip
            continue
        kind = m.lastgroup
        s = m.group()
        if kind == "ws" or kind == "lcomment" or kind == "bcomment":
            line += s.count("\n")
        elif kind == "punct" and s == "#":
            # Preprocessor directive: swallow to end of (continued)
            # line.  Keeps #include / #if out of the token stream.
            j = pos
            while j < n:
                e = text.find("\n", j)
                if e < 0:
                    j = n
                    break
                if text[e - 1] == "\\":
                    line += 1
                    j = e + 1
                    continue
                j = e
                break
            line += text.count("\n", pos, j)
            pos = j
            continue
        else:
            toks.append(Tok(kind, s, line))
            line += s.count("\n")
        pos = m.end()
    return toks


def scan_allows(text):
    """line number -> set of rules allowed on that line."""
    allows = {}
    for num, line in enumerate(text.splitlines(), 1):
        for m in ALLOW.finditer(line):
            allows.setdefault(num, set()).add(m.group(1))
    return allows


# ---- statement IR --------------------------------------------------
#
# Every function body lowers to a list of nodes:
#
#   ("call", chain, name, line, member)   call op, evaluation order
#   ("assign", lhs_base, line)            assignment through a chain
#   ("lock", line, flavor)                a scoped-lock declaration;
#                                         flavor "shard" or "plain"
#   ("block", [nodes])                    explicit { } scope
#   ("if", [then_nodes], [else_nodes])    both branches analysed
#   ("loop", [body_nodes])                body may run zero times
#   ("return", line)                      path ends here
#
# Rules walk this tree; neither frontend leaks past it.


class FunctionIR:
    def __init__(self, cls, name, relpath, line, end, params, body):
        self.cls = cls        # enclosing class name or ""
        self.name = name      # unqualified function name
        self.relpath = relpath
        self.line = line      # first line of the definition
        self.end = end        # line of the closing brace
        self.params = params  # list of (type_text, name, line)
        self.body = body      # statement IR list

    @property
    def qualname(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


# ---- internal frontend ---------------------------------------------

class InternalFrontend:
    """Extract FunctionIRs straight from the token stream.

    Handles the repo style (out-of-class definitions, opening brace
    on its own line) plus inline members inside class bodies, which
    the fixture corpus uses.
    """

    name = "internal"

    def parse_file(self, relpath, text, toks):
        funcs = []
        self._scan(toks, 0, len(toks), "", relpath, funcs)
        return funcs

    # -- scope scanning ------------------------------------------

    def _scan(self, toks, i, end, cls, relpath, out):
        while i < end:
            t = toks[i]
            if t.kind == "id" and t.text in ("class", "struct"):
                i = self._scan_class(toks, i, end, relpath, out)
            elif t.kind == "id" and t.text == "namespace":
                i = self._skip_to(toks, i, end, "{")
                if i < end:
                    close = self._match_brace(toks, i, end)
                    self._scan(toks, i + 1, close, cls, relpath, out)
                    i = close + 1
            elif t.kind == "id" and t.text in ("using", "typedef",
                                               "template"):
                i = self._skip_decl(toks, i, end)
            else:
                f = self._try_function(toks, i, end, cls, relpath)
                if f:
                    out.append(f[0])
                    i = f[1]
                else:
                    i += 1
        return i

    def _scan_class(self, toks, i, end, relpath, out):
        # class NAME [final] [: bases] { ... } ;  -- or a forward
        # declaration `class NAME;`.
        j = i + 1
        name = ""
        while j < end and toks[j].kind == "id":
            name = toks[j].text
            j += 1
        while j < end and toks[j].text not in ("{", ";"):
            j += 1
        if j >= end or toks[j].text == ";":
            return j + 1
        close = self._match_brace(toks, j, end)
        self._scan(toks, j + 1, close, name, relpath, out)
        return close + 1

    def _skip_to(self, toks, i, end, text):
        while i < end and toks[i].text != text:
            i += 1
        return i

    def _skip_decl(self, toks, i, end):
        depth = 0
        while i < end:
            t = toks[i].text
            if t in "({[":
                depth += 1
            elif t in ")}]":
                depth -= 1
            elif t == ";" and depth <= 0:
                return i + 1
            elif t == "{" and depth == 0:
                return self._match_brace(toks, i, end) + 1
            i += 1
        return end

    def _match_brace(self, toks, i, end):
        """i points at '{'; return index of the matching '}'."""
        depth = 0
        while i < end:
            if toks[i].text == "{":
                depth += 1
            elif toks[i].text == "}":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return end - 1

    def _try_function(self, toks, i, end, cls, relpath):
        """Recognise `... [Cls::]name ( params ) [const...] [: init]
        {` starting the declarator at or after i.  Returns
        (FunctionIR, next_index) or None."""
        t = toks[i]
        if t.kind != "id" or t.text in KEYWORDS:
            return None
        # The candidate name is an identifier directly followed by
        # '(' -- possibly via Cls::name.
        name = t.text
        fn_cls = cls
        j = i + 1
        while j + 1 < end and toks[j].text == "::" and \
                toks[j + 1].kind == "id":
            fn_cls = name if not cls else name
            name = toks[j + 1].text
            j += 2
        if j >= end or toks[j].text != "(" or name in KEYWORDS:
            return None
        close_paren = self._match_paren(toks, j, end)
        if close_paren is None:
            return None
        # After ')': const/noexcept/override/final/attribute, then an
        # optional ctor-initialiser, then '{' for a definition.
        k = close_paren + 1
        while k < end and toks[k].kind == "id" and \
                toks[k].text in ("const", "noexcept", "override",
                                 "final", "mutable"):
            k += 1
        if k < end and toks[k].text == "(":  # noexcept(...)
            p = self._match_paren(toks, k, end)
            if p is None:
                return None
            k = p + 1
        if k < end and toks[k].text == ":":
            # ctor init list: skip balanced until '{' at depth 0
            k += 1
            depth = 0
            while k < end:
                tx = toks[k].text
                if tx in "([":
                    depth += 1
                elif tx in ")]":
                    depth -= 1
                elif tx == "{" and depth == 0:
                    break
                elif tx == ";" and depth == 0:
                    return None
                k += 1
        if k >= end or toks[k].text != "{":
            return None
        # Guard against control statements and calls: the token
        # before the declarator must not suggest an expression.
        if i > 0 and toks[i - 1].text in (".", "->", "::", "(", ",",
                                          "=", "return", "&&", "||",
                                          "!", "==", "!="):
            return None
        # The definition starts at its return type and specifiers.
        start = i
        while start > 0 and (toks[start - 1].kind == "id" or
                             toks[start - 1].text in DECL_PUNCT):
            start -= 1
        body_close = self._match_brace(toks, k, end)
        params = self._parse_params(toks, j + 1, close_paren)
        body = self._parse_block(toks, k + 1, body_close)
        ir = FunctionIR(fn_cls, name, relpath, toks[start].line,
                        toks[body_close].line, params, body)
        return ir, body_close + 1

    def _match_paren(self, toks, i, end):
        """Strict matcher for declarator parameter lists: a brace or
        semicolon before the close means this was not a declarator."""
        depth = 0
        while i < end:
            if toks[i].text == "(":
                depth += 1
            elif toks[i].text == ")":
                depth -= 1
                if depth == 0:
                    return i
            elif toks[i].text in ("{", ";"):
                return None
            i += 1
        return None

    def _match_paren_any(self, toks, i, end):
        """Balance-only matcher for conditions: `for (;;)` headers
        and lambdas in conditions are legal there."""
        depth = 0
        while i < end:
            if toks[i].text == "(":
                depth += 1
            elif toks[i].text == ")":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return None

    def _parse_params(self, toks, i, end):
        """Split [i, end) on top-level commas; each piece is a
        parameter: all-but-last id is the type, last id the name."""
        params = []
        piece = []
        depth = 0
        for k in range(i, end):
            t = toks[k]
            if t.text in "(<[{":
                depth += 1
            elif t.text in ")>]}":
                depth -= 1
            if t.text == "," and depth == 0:
                params.append(piece)
                piece = []
            else:
                piece.append(t)
        if piece:
            params.append(piece)
        out = []
        for piece in params:
            # drop default argument
            for k, t in enumerate(piece):
                if t.text == "=":
                    piece = piece[:k]
                    break
            ids = [t for t in piece if t.kind == "id"]
            if len(ids) < 2:
                continue  # unnamed or `void`
            pname = ids[-1]
            type_text = " ".join(
                t.text for t in piece
                if t is not pname).replace(" :: ", "::")
            out.append((type_text, pname.text, pname.line))
        return out

    # -- statement parsing ---------------------------------------

    def _parse_block(self, toks, i, end):
        """Parse statements in [i, end) (inside braces)."""
        nodes = []
        while i < end:
            t = toks[i]
            if t.text == "{":
                close = self._match_brace(toks, i, end)
                nodes.append(("block",
                              self._parse_block(toks, i + 1, close)))
                i = close + 1
            elif t.kind == "id" and t.text == "if":
                i = self._parse_if(toks, i, end, nodes)
            elif t.kind == "id" and t.text in ("for", "while",
                                               "switch"):
                i = self._parse_loop(toks, i, end, nodes)
            elif t.kind == "id" and t.text == "do":
                # do { body } while (cond); body runs at least once.
                if i + 1 < end and toks[i + 1].text == "{":
                    close = self._match_brace(toks, i + 1, end)
                    nodes.append(("block", self._parse_block(
                        toks, i + 2, close)))
                    i = self._skip_statement(toks, close + 1, end,
                                             nodes, emit=True)
                else:
                    i += 1
            elif t.kind == "id" and t.text == "return":
                i = self._skip_statement(toks, i + 1, end, nodes,
                                         emit=True)
                nodes.append(("return", t.line))
            elif t.kind == "id" and t.text == "else":
                i += 1  # handled by _parse_if; stray safety
            else:
                i = self._skip_statement(toks, i, end, nodes,
                                         emit=True)
        return nodes

    def _parse_paren_ops(self, toks, i, end, nodes):
        """i at '('; emit ops for the condition, return index past
        ')'."""
        close = self._match_paren_any(toks, i, end)
        if close is None:
            return end
        self._emit_ops(toks, i + 1, close, nodes)
        return close + 1

    def _parse_if(self, toks, i, end, nodes):
        line = toks[i].line
        i += 1
        if i < end and toks[i].kind == "id" and \
                toks[i].text == "constexpr":
            i += 1
        if i >= end or toks[i].text != "(":
            return i
        i = self._parse_paren_ops(toks, i, end, nodes)
        then_nodes, i = self._parse_substmt(toks, i, end)
        else_nodes = []
        if i < end and toks[i].kind == "id" and toks[i].text == "else":
            i += 1
            if i < end and toks[i].kind == "id" and \
                    toks[i].text == "if":
                sub = []
                i = self._parse_if(toks, i, end, sub)
                else_nodes = sub
            else:
                else_nodes, i = self._parse_substmt(toks, i, end)
        nodes.append(("if", then_nodes, else_nodes, line))
        return i

    def _parse_loop(self, toks, i, end, nodes):
        i += 1
        if i >= end or toks[i].text != "(":
            return i
        i = self._parse_paren_ops(toks, i, end, nodes)
        body, i = self._parse_substmt(toks, i, end)
        nodes.append(("loop", body))
        return i

    def _parse_substmt(self, toks, i, end):
        """One statement or block after if(...)/loop(...)."""
        if i < end and toks[i].text == "{":
            close = self._match_brace(toks, i, end)
            return self._parse_block(toks, i + 1, close), close + 1
        sub = []
        if i < end and toks[i].kind == "id" and toks[i].text == "if":
            i = self._parse_if(toks, i, end, sub)
            return sub, i
        if i < end and toks[i].kind == "id" and \
                toks[i].text == "return":
            line = toks[i].line
            i = self._skip_statement(toks, i + 1, end, sub, emit=True)
            sub.append(("return", line))
            return sub, i
        i = self._skip_statement(toks, i, end, sub, emit=True)
        return sub, i

    def _skip_statement(self, toks, i, end, nodes, emit):
        """Consume one `...;` statement, emitting its ops."""
        start = i
        depth = 0
        while i < end:
            t = toks[i].text
            if t in "([":
                depth += 1
            elif t in ")]":
                depth -= 1
            elif t == "{":
                # brace inside a statement: lambda body or braced
                # init.  Lambda bodies are deferred code: a ("defer",
                # [...]) node keeps their ops for the call graph and
                # out of the ordering/lock walks.
                close = self._match_brace(toks, i, end)
                if emit:
                    inner = self._parse_block(toks, i + 1, close)
                    nodes.append(("defer", inner))
                i = close + 1
                continue
            elif t == ";" and depth <= 0:
                if emit:
                    self._emit_ops(toks, start, i, nodes)
                return i + 1
            i += 1
        if emit:
            self._emit_ops(toks, start, end, nodes)
        return end

    def _emit_ops(self, toks, i, end, nodes):
        """Scan [i, end) (one expression/declaration, braces already
        removed) for call, assignment and lock-declaration ops, in
        textual order."""
        # Lock declaration: TYPE name ( ... )   with TYPE in
        # LOCK_DECL_TYPES (possibly std:: / template-argumented).
        k = i
        while k < end:
            t = toks[k]
            if t.kind == "id" and t.text in LOCK_DECL_TYPES:
                # skip template args
                j = k + 1
                if j < end and toks[j].text == "<":
                    depth = 0
                    while j < end:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                j += 1
                                break
                        j += 1
                if j < end and toks[j].kind == "id" and \
                        j + 1 < end and toks[j + 1].text in ("(", "{"):
                    if t.text in SHARD_LOCK_TYPES:
                        flavor = "shard"
                    else:
                        flavor = "plain"
                        # Constructor argument naming a journal leaf
                        # lock -> the exempt "leaf" flavor.
                        a = j + 2
                        depth2 = 1
                        while a < end and depth2 > 0:
                            tt = toks[a]
                            if tt.text in "([{":
                                depth2 += 1
                            elif tt.text in ")]}":
                                depth2 -= 1
                            elif tt.kind == "id" and \
                                    tt.text in JOURNAL_LEAF_LOCKS:
                                flavor = "leaf"
                            a += 1
                    nodes.append(("lock", t.line, flavor))
                    k = j
                    break
            k += 1
        # Calls and assignments.  Brace groups (lambda bodies) were
        # already lowered to defer nodes by the caller; skip them.
        k = i
        while k < end:
            t = toks[k]
            if t.text == "{":
                depth = 0
                while k < end:
                    if toks[k].text == "{":
                        depth += 1
                    elif toks[k].text == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                k += 1
                continue
            if t.kind == "id" and k + 1 < end and \
                    toks[k + 1].text == "(" and t.text not in KEYWORDS:
                # reconstruct the chain behind the call
                chain = []
                b = k - 1
                member = False
                while b >= 0:
                    tx = toks[b].text
                    if tx in (".", "->", "::"):
                        if tx in (".", "->"):
                            member = True
                        chain.append(tx)
                        b -= 1
                    elif toks[b].kind == "id" and chain and \
                            chain[-1] in (".", "->", "::"):
                        chain.append(toks[b].text)
                        b -= 1
                    elif tx == ")" or tx == "]":
                        # meta(seg)[x].foo() style base: fold the
                        # bracketed group into the chain head.
                        depth = 0
                        while b >= 0:
                            bx = toks[b].text
                            if bx in ")]":
                                depth += 1
                            elif bx in "([":
                                depth -= 1
                                if depth == 0:
                                    b -= 1
                                    break
                            b -= 1
                        if b >= 0 and toks[b].kind == "id" and \
                                toks[b].text not in KEYWORDS:
                            chain.append(toks[b].text)
                            b -= 1
                    else:
                        break
                base = "".join(reversed(chain))
                nodes.append(("call", base, t.text, t.line, member))
            elif t.text == "=" and k > i:
                prev = toks[k - 1]
                if prev.text in ("]", ")") or prev.kind == "id":
                    # walk back to the base identifier of the LHS
                    b = k - 1
                    depth = 0
                    base = None
                    while b >= i:
                        tx = toks[b].text
                        if tx in ")]":
                            depth += 1
                        elif tx in "([":
                            depth -= 1
                        elif toks[b].kind == "id" and depth == 0:
                            base = toks[b].text
                            if b > i and toks[b - 1].text in (
                                    ".", "->", "::"):
                                b -= 1
                                continue
                            break
                        b -= 1
                    if base:
                        nodes.append(("assign", base, t.line))
            k += 1


# ---- libclang frontend ---------------------------------------------

class LibclangFrontend:
    """Lower real clang ASTs to the same FunctionIR.

    Requires the `clang.cindex` binding and a compile_commands.json;
    main() falls back to the internal frontend when either is
    missing.
    """

    name = "libclang"

    def __init__(self, root, compdb_dir):
        import clang.cindex as ci
        self.ci = ci
        self.root = root
        self.index = ci.Index.create()
        self.compdb = ci.CompilationDatabase.fromDirectory(compdb_dir)

    def parse_file(self, relpath, text, toks):
        ci = self.ci
        path = os.path.join(self.root, relpath)
        args = []
        cmds = self.compdb.getCompileCommands(path)
        if cmds:
            raw = list(cmds[0].arguments)[1:-1]
            skip = False
            for a in raw:
                if skip:
                    skip = False
                    continue
                if a in ("-o", "-c"):
                    skip = a == "-o"
                    continue
                if a == path or a.endswith(relpath):
                    continue
                args.append(a)
        tu = self.index.parse(path, args=args)
        funcs = []
        self._walk_decls(tu.cursor, relpath, funcs)
        return funcs

    def _walk_decls(self, cursor, relpath, out):
        ci = self.ci
        for c in cursor.get_children():
            if c.location.file and not str(
                    c.location.file).endswith(relpath):
                continue
            k = c.kind
            if k in (ci.CursorKind.NAMESPACE,
                     ci.CursorKind.CLASS_DECL,
                     ci.CursorKind.STRUCT_DECL,
                     ci.CursorKind.UNEXPOSED_DECL,
                     ci.CursorKind.LINKAGE_SPEC):
                self._walk_decls(c, relpath, out)
            elif k in (ci.CursorKind.CXX_METHOD,
                       ci.CursorKind.FUNCTION_DECL,
                       ci.CursorKind.CONSTRUCTOR,
                       ci.CursorKind.DESTRUCTOR,
                       ci.CursorKind.FUNCTION_TEMPLATE) and \
                    c.is_definition():
                cls = ""
                if c.semantic_parent and c.semantic_parent.kind in (
                        ci.CursorKind.CLASS_DECL,
                        ci.CursorKind.STRUCT_DECL):
                    cls = c.semantic_parent.spelling
                params = []
                for p in c.get_arguments():
                    params.append((p.type.spelling, p.spelling,
                                   p.location.line))
                body = []
                for child in c.get_children():
                    if child.kind == ci.CursorKind.COMPOUND_STMT:
                        body = self._lower_stmt(child)
                out.append(FunctionIR(cls, c.spelling, relpath,
                                      c.extent.start.line,
                                      c.extent.end.line, params, body))

    def _lower_stmt(self, cursor):
        ci = self.ci
        nodes = []
        for c in cursor.get_children():
            k = c.kind
            if k == ci.CursorKind.COMPOUND_STMT:
                nodes.append(("block", self._lower_stmt(c)))
            elif k == ci.CursorKind.IF_STMT:
                kids = list(c.get_children())
                self._lower_expr(kids[0], nodes)
                then = self._lower_one(kids[1]) if len(kids) > 1 \
                    else []
                els = self._lower_one(kids[2]) if len(kids) > 2 \
                    else []
                nodes.append(("if", then, els, c.location.line))
            elif k in (ci.CursorKind.FOR_STMT,
                       ci.CursorKind.WHILE_STMT,
                       ci.CursorKind.CXX_FOR_RANGE_STMT,
                       ci.CursorKind.SWITCH_STMT,
                       ci.CursorKind.DO_STMT):
                body = []
                for kid in c.get_children():
                    if kid.kind == ci.CursorKind.COMPOUND_STMT:
                        body = self._lower_stmt(kid)
                    else:
                        self._lower_expr(kid, body)
                nodes.append(("loop", body))
            elif k == ci.CursorKind.RETURN_STMT:
                for kid in c.get_children():
                    self._lower_expr(kid, nodes)
                nodes.append(("return", c.location.line))
            elif k == ci.CursorKind.DECL_STMT:
                for kid in c.get_children():
                    if kid.kind == ci.CursorKind.VAR_DECL:
                        tname = kid.type.spelling
                        if any(lt in tname
                               for lt in LOCK_DECL_TYPES):
                            if any(st in tname
                                   for st in SHARD_LOCK_TYPES):
                                flavor = "shard"
                            elif any(
                                    t.spelling in JOURNAL_LEAF_LOCKS
                                    for t in kid.get_tokens()):
                                flavor = "leaf"
                            else:
                                flavor = "plain"
                            nodes.append(("lock",
                                          kid.location.line,
                                          flavor))
                            continue
                    self._lower_expr(kid, nodes)
            else:
                self._lower_expr(c, nodes)
        return nodes

    def _lower_one(self, cursor):
        ci = self.ci
        if cursor.kind == ci.CursorKind.COMPOUND_STMT:
            return self._lower_stmt(cursor)
        return self._lower_stmt_single(cursor)

    def _lower_stmt_single(self, cursor):
        wrap = self.ci.CursorKind
        nodes = []
        if cursor.kind == wrap.RETURN_STMT:
            for kid in cursor.get_children():
                self._lower_expr(kid, nodes)
            nodes.append(("return", cursor.location.line))
        elif cursor.kind == wrap.IF_STMT:
            kids = list(cursor.get_children())
            self._lower_expr(kids[0], nodes)
            then = self._lower_one(kids[1]) if len(kids) > 1 else []
            els = self._lower_one(kids[2]) if len(kids) > 2 else []
            nodes.append(("if", then, els, cursor.location.line))
        else:
            self._lower_expr(cursor, nodes)
        return nodes

    def _lower_expr(self, cursor, nodes):
        ci = self.ci
        if cursor.kind == ci.CursorKind.LAMBDA_EXPR:
            inner = []
            for kid in cursor.get_children():
                if kid.kind == ci.CursorKind.COMPOUND_STMT:
                    inner = self._lower_stmt(kid)
            nodes.append(("defer", inner))
            return
        if cursor.kind == ci.CursorKind.CALL_EXPR:
            name = cursor.spelling or ""
            member = False
            base = ""
            kids = list(cursor.get_children())
            if kids and kids[0].kind == ci.CursorKind. \
                    MEMBER_REF_EXPR:
                member = True
                bb = list(kids[0].get_children())
                if bb:
                    base = bb[0].spelling or ""
                base = f"{base}.{name}" if base else name
            if name:
                nodes.append(("call", base, name,
                              cursor.location.line, member))
        if cursor.kind in (ci.CursorKind.BINARY_OPERATOR,
                           ci.CursorKind.
                           COMPOUND_ASSIGNMENT_OPERATOR):
            kids = list(cursor.get_children())
            if kids:
                toks = [t.spelling for t in cursor.get_tokens()]
                if "=" in toks:
                    lhs = kids[0]
                    base = lhs.spelling
                    cur = lhs
                    while not base:
                        sub = list(cur.get_children())
                        if not sub:
                            break
                        cur = sub[0]
                        base = cur.spelling
                    if base:
                        nodes.append(("assign", base,
                                      cursor.location.line))
        for kid in cursor.get_children():
            self._lower_expr(kid, nodes)


# ---- rule machinery ------------------------------------------------

class Findings:
    def __init__(self):
        self.items = []  # (relpath, line, rule, message)
        self.allows = {}  # relpath -> {line: set(rules)}
        self.used_allows = set()  # (relpath, line, rule)

    def load_allows(self, relpath, text):
        self.allows[relpath] = scan_allows(text)

    def report(self, relpath, line, rule, message):
        per_file = self.allows.get(relpath, {})
        for num in (line, line - 1):
            if rule in per_file.get(num, set()):
                self.used_allows.add((relpath, num, rule))
                return
        self.items.append((relpath, line, rule, message))

    def finish_unused_allows(self):
        for relpath, per_line in sorted(self.allows.items()):
            for num, rules in sorted(per_line.items()):
                for rule in sorted(rules):
                    if (relpath, num, rule) in self.used_allows:
                        continue
                    if rule not in RULES:
                        self.items.append((
                            relpath, num, "unused-allow",
                            f"allow({rule}) names no envy-analyze "
                            "rule"))
                    else:
                        self.items.append((
                            relpath, num, "unused-allow",
                            f"allow({rule}) suppresses nothing -- "
                            "remove it or fix the rule id"))


def walk_ops(nodes, include_defer=False):
    """Flatten to ops for order-insensitive consumers."""
    for n in nodes:
        kind = n[0]
        if kind in ("call", "assign", "lock", "return"):
            yield n
        elif kind == "block" or kind == "loop":
            yield from walk_ops(n[1], include_defer)
        elif kind == "if":
            yield from walk_ops(n[1], include_defer)
            yield from walk_ops(n[2], include_defer)
        elif kind == "defer" and include_defer:
            yield from walk_ops(n[1], include_defer)


# -- rule: journal-before-mmap ---------------------------------------

def is_journal_call(op, extra_names):
    _, base, name, _line, _member = op
    if name in JOURNAL_BARE_CALLS and not base:
        return True
    if name in extra_names:
        return True
    if name in JOURNAL_CALL_NAMES and "journal" in base.lower():
        return True
    return False


def is_store_write(op):
    if op[0] == "call":
        _, base, name, _line, _member = op
        return name in STORE_WRITE_CALLS
    if op[0] == "assign":
        _, base, _line = op
        return base in STORE_WRITE_LHS
    return False


def journal_walk(nodes, journaled, extra, hits):
    """Walk the statement tree; `journaled` is True when every path
    to this point has journaled.  Returns the journaled state on
    fall-through, or None when every path returned."""
    for n in nodes:
        kind = n[0]
        if kind == "call":
            if is_journal_call(n, extra):
                journaled = True
            elif is_store_write(n) and not journaled:
                hits.append((n[3], n[2]))
        elif kind == "assign":
            if is_store_write(n) and not journaled:
                hits.append((n[2], n[1]))
        elif kind == "return":
            return None
        elif kind == "block":
            journaled = journal_walk(n[1], journaled, extra, hits)
            if journaled is None:
                return None
        elif kind == "if":
            then_state = journal_walk(n[1], journaled, extra, hits)
            else_state = journal_walk(n[2], journaled, extra, hits)
            states = [s for s in (then_state, else_state)
                      if s is not None]
            if not states:
                return None
            # A branch that returned does not weaken the fall-through
            # state: only surviving paths join.
            journaled = all(states)
        elif kind == "loop":
            # body may run zero times: findings inside are checked
            # with the entry state; a journal inside cannot promote
            # the state after the loop.
            journal_walk(n[1], journaled, extra, hits)
        elif kind == "defer":
            # deferred (lambda) bodies run at unknowable times; they
            # are checked independently with a clean state.
            journal_walk(n[1], False, extra, hits)
    return journaled


def always_journals(fn, extra):
    """True when every path through fn reaches a journal call (and
    never store-writes first) -- such helpers count as journal ops
    for their callers."""
    hits = []
    state = journal_walk(fn.body, False, extra, hits)
    if hits:
        return False
    if state is True:
        return True
    # state None (all paths return): approximate by requiring at
    # least one journal call and no store writes at all.
    ops = list(walk_ops(fn.body))
    if any(is_store_write(op) for op in ops if op[0] in
           ("call", "assign")):
        return False
    return any(op[0] == "call" and is_journal_call(op, extra)
               for op in ops)


def rule_journal_before_mmap(functions, findings):
    targets = [f for f in functions if f.cls in JOURNAL_CLASSES]
    # Fixpoint: helpers of the same class that provably always
    # journal become journal ops themselves (checkpointNow()).
    extra = set()
    for _ in range(3):
        new = {f.name for f in targets if always_journals(f, extra)}
        if new <= extra:
            break
        extra |= new
    for fn in targets:
        hits = []
        journal_walk(fn.body, False, extra, hits)
        for line, what in hits:
            findings.report(
                fn.relpath, line, "journal-before-mmap",
                f"{fn.qualname} writes the store mapping via "
                f"'{what}' on a path with no prior MetaJournal "
                "append -- a crash here leaves flash metadata newer "
                "than the journal (docs/PERSISTENCE.md ordering)")


# -- rule: lock-discipline -------------------------------------------

def _is_exempt_cv(base):
    """True when a member wait's base chain names one of EXEMPT_CVS
    (cv_.wait_for, this->roomCv_.wait, ...)."""
    return any(part in EXEMPT_CVS
               for part in re.split(r"\.|->|::", base))


def _callee(base, name):
    """`runner_.submit` from a call op's chain and name (the libclang
    chain already ends in the name)."""
    return base if base.endswith(name) else base + name


def lock_walk(nodes, locked, shard, hits):
    """Walk a body tracking (any-lock-held, shard-lock-held); append
    (line, what, why) for each discipline violation."""
    for n in nodes:
        kind = n[0]
        if kind == "lock":
            # A journal leaf lock (JOURNAL_LEAF_LOCKS) does not count
            # as "locked": covering the journal's write/fdatasync is
            # the lock's documented job, and nothing else nests
            # below it, so parking under it blocks no one who holds
            # anything higher in the order.
            if n[2] != "leaf":
                locked = True
            shard = shard or n[2] == "shard"
        elif kind == "call":
            _, base, name, line, member = n
            if member:
                what = f"{_callee(base, name)}()"
                if name in BLOCKING_MEMBER_CALLS and locked:
                    hits.append((line, what, "blocking"))
                elif name in FLASH_DEVICE_CALLS and shard:
                    hits.append((line, what, "flash"))
                elif name in CV_WAIT_CALLS and locked and \
                        not _is_exempt_cv(base):
                    hits.append((line, what, "cvwait"))
            elif name in BLOCKING_SYSCALLS and locked:
                hits.append((line, f"{name}()", "blocking"))
        elif kind == "block":
            # a lock declared inside the block dies with it; one held
            # on entry is still held inside.
            lock_walk(n[1], locked, shard, hits)
        elif kind == "if":
            lock_walk(n[1], locked, shard, hits)
            lock_walk(n[2], locked, shard, hits)
        elif kind == "loop":
            lock_walk(n[1], locked, shard, hits)
        elif kind == "defer":
            lock_walk(n[1], False, False, hits)
    return locked


def rule_lock_discipline(functions, findings):
    why_text = {
        "blocking": "while holding a mutex -- blocking syscalls and "
                    "ParallelRunner submission must run outside "
                    "locked regions",
        "flash": "while holding a shard lock -- shard locks "
                 "serialize one page's translation; flash "
                 "program/erase belongs under the structural lock "
                 "(docs/INTERNALS.md lock order)",
        "cvwait": "while holding a scoped lock -- only the exempt cvs "
                  f"({', '.join(EXEMPT_CVS)}) may wait with a scope "
                  "open, each on a mutex its wait releases itself",
    }
    for fn in functions:
        hits = []
        lock_walk(fn.body, False, False, hits)
        for line, what, why in hits:
            findings.report(
                fn.relpath, line, "lock-discipline",
                f"{fn.qualname} calls {what} {why_text[why]}")


# -- token rules ------------------------------------------------------

def _texts(toks, k, n):
    return tuple(t.text for t in toks[k:k + n])


def token_rules(relpath, toks, findings, sites):
    """The per-file token rules.  Also appends each ENVY_CRASH_POINT
    and ENVY_TRACE site to sites[macro] as (name, relpath, line) for
    the cross-file rules."""
    threads_ok = relpath in THREAD_EXEMPT
    per_byte_ok = relpath in PER_BYTE_EXEMPT
    mmap_ok = relpath.startswith(MMAP_EXEMPT_PREFIX)
    for k, t in enumerate(toks):
        if t.kind != "id":
            continue
        call = _texts(toks, k + 1, 1) == ("(",)
        arg = toks[k + 2] if call and k + 2 < len(toks) else None
        literal = arg.text[1:-1] if arg and arg.kind == "str" else None
        if t.text in sites and literal is not None:
            sites[t.text].append((literal, relpath, t.line))
        elif t.text in PANIC_MACROS and literal is not None:
            if not PANIC_PREFIX.match(arg.text):
                findings.report(
                    relpath, t.line, "panic-prefix",
                    'panic/fatal message must start with a lowercase '
                    '"subsystem: " prefix')
        elif t.text == "new" or (call and t.text in RAW_ALLOC_CALLS):
            findings.report(
                relpath, t.line, "no-raw-alloc",
                f"raw allocation '{t.text}' -- use std::vector / "
                "std::unique_ptr")
        elif t.text == "std" and not threads_ok and (
                _texts(toks, k + 1, 2) in (("::", "thread"),
                                           ("::", "jthread")) or
                _texts(toks, k + 1, 3) == ("::", "async", "(")):
            findings.report(
                relpath, t.line, "no-naked-thread",
                f"'std::{toks[k + 2].text}' outside the thread-owning "
                "components -- route concurrency through "
                "ParallelRunner")
        elif not per_byte_ok and (
                (call and t.text == "programByte") or
                _texts(toks, k, 5) == ("writeCommand", "(", "FlashCmd",
                                       "::", "ProgramSetup")):
            findings.report(
                relpath, t.line, "no-per-byte-page-loop",
                f"per-byte CUI program '{t.text}' -- page data moves "
                "through FlashBank::programPage")
        elif call and t.text in RAW_MMAP_CALLS and not mmap_ok:
            findings.report(
                relpath, t.line, "no-raw-mmap",
                f"'{t.text}' outside src/persist/ -- mapping and "
                "durability syscalls go through the persistence "
                "subsystem (docs/PERSISTENCE.md)")


def read_inventory(toks):
    """name -> line for the string literals of the first
    `std::vector<std::string>{...}` initializer in an inventory file."""
    opener = ("vector", "<", "std", "::", "string", ">", "{")
    for k in range(len(toks)):
        if _texts(toks, k, len(opener)) != opener:
            continue
        inventory = {}
        for t in toks[k + len(opener):]:
            if t.text == "}":
                break
            if t.kind == "str":
                inventory.setdefault(t.text[1:-1], t.line)
        return inventory
    return {}


def rule_unique_registered(kind, sites, inventory, inventory_path,
                           findings):
    """<kind>-unique: one site per name; <kind>-registered: every name
    is in the canonical inventory."""
    noun = kind.replace("-", " ")
    seen = {}
    for name, relpath, line in sites:
        first = seen.setdefault(name, (relpath, line))
        if first != (relpath, line):
            findings.report(
                relpath, line, f"{kind}-unique",
                f'{noun} "{name}" already used at '
                f"{first[0]}:{first[1]} -- one site per name")
        if name not in inventory:
            findings.report(
                relpath, line, f"{kind}-registered",
                f'{noun} "{name}" is missing from the canonical '
                f"inventory in {inventory_path}")


# -- rules: crash-point-coverage / crash-point-reachable --------------

def site_owners(functions, sites):
    """(name, relpath, line) site -> the innermost function whose
    definition spans it (None at file scope)."""
    by_file = {}
    for fn in functions:
        by_file.setdefault(fn.relpath, []).append(fn)
    owners = {}
    for site in sites:
        _name, relpath, line = site
        spans = [fn for fn in by_file.get(relpath, ())
                 if fn.line <= line <= fn.end]
        owners[site] = max(spans, key=lambda fn: fn.line, default=None)
    return owners


def rule_crash_point_coverage(functions, owners, findings):
    covered = {id(fn) for fn in owners.values()}
    for fn in functions:
        if fn.relpath not in MUTATION_FILES or id(fn) in covered:
            continue
        mutations = sorted({op[2] for op in walk_ops(fn.body, True)
                            if op[0] == "call" and
                            op[2] in MUTATING_CALLS})
        if mutations:
            findings.report(
                fn.relpath, fn.line, "crash-point-coverage",
                f"{fn.qualname} mutates durable state "
                f"({', '.join(mutations)}) but declares no "
                "ENVY_CRASH_POINT -- the crash explorer cannot cut "
                "inside it")


def rule_crash_point_reachable(functions, owners, inventory, findings):
    calls = {}  # function name -> set of callee names
    for fn in functions:
        calls.setdefault(fn.name, set()).update(
            op[2] for op in walk_ops(fn.body, include_defer=True)
            if op[0] == "call")

    # BFS over call names from the entry classes.
    reached = {fn.name for fn in functions if fn.cls in ENTRY_CLASSES}
    frontier = list(reached)
    while frontier:
        nxt = []
        for name in frontier:
            for callee in calls.get(name, ()):
                if callee not in reached:
                    reached.add(callee)
                    nxt.append(callee)
        frontier = nxt

    declared = {site[0]: (site, fn) for site, fn in owners.items()}
    entry_list = "/".join(ENTRY_CLASSES)
    for point, inventory_line in sorted(inventory.items()):
        if point not in declared:
            findings.report(
                CRASH_INVENTORY, inventory_line, "crash-point-reachable",
                f'crash point "{point}" is in the canonical '
                "inventory but declared nowhere in the scanned tree")
            continue
        (_name, relpath, line), fn = declared[point]
        if fn is None or fn.name not in reached:
            where = f" (in {fn.name})" if fn else ""
            findings.report(
                relpath, line, "crash-point-reachable",
                f'crash point "{point}"{where} is unreachable from '
                f"any {entry_list} entry point -- the crash explorer "
                "and harness have lost this coverage")


# -- rule: typed-id --------------------------------------------------

def rule_typed_id(functions, findings):
    for fn in functions:
        for type_text, pname, line in fn.params:
            if pname not in TYPED_ID_NAMES:
                continue
            norm = type_text.replace("&", " &").strip()
            if RAW_INT_TYPES.match(type_text.strip()) or \
                    RAW_INT_TYPES.match(norm):
                findings.report(
                    fn.relpath, line, "typed-id",
                    f"{fn.qualname} takes raw integer parameter "
                    f"'{type_text} {pname}' -- use LogicalPageId / "
                    "SlotId / SegmentId")


# ---- driver --------------------------------------------------------

def source_files(root):
    """Every C++ file under ROOT/src, as sorted relative paths."""
    files = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        files.extend(os.path.relpath(os.path.join(dirpath, n), root)
                     for n in names
                     if n.endswith((".cc", ".hh", ".cpp", ".hpp")))
    return sorted(files)


def make_frontend(kind, root, compdb_path, notes):
    if kind in ("auto", "libclang"):
        try:
            compdb_dir = os.path.dirname(compdb_path) \
                if compdb_path else os.path.join(root, "build")
            if not os.path.exists(os.path.join(
                    compdb_dir, "compile_commands.json")):
                raise RuntimeError(
                    f"no compile_commands.json in {compdb_dir}")
            fe = LibclangFrontend(root, compdb_dir)
            return fe
        except Exception as e:  # binding/library/compdb missing
            if kind == "libclang":
                print(f"envy-analyze: libclang frontend unavailable: "
                      f"{e}", file=sys.stderr)
                sys.exit(2)
            notes.append(f"libclang unavailable ({e.__class__.__name__}"
                         f": {e}); using internal frontend")
    return InternalFrontend()


def analyze(root, files, frontend, findings):
    functions = []
    tokens = {}
    for rel in files:
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                text = f.read()
        except OSError:
            continue
        findings.load_allows(rel, text)
        toks = tokens[rel] = tokenize(text)
        try:
            functions.extend(frontend.parse_file(rel, text, toks))
        except Exception as e:
            if frontend.name == "libclang":
                # one bad TU must not silence the run
                functions.extend(
                    InternalFrontend().parse_file(rel, text, toks))
            else:
                raise RuntimeError(f"{rel}: {e}") from e

    sites = {"ENVY_CRASH_POINT": [], "ENVY_TRACE": []}
    for rel, toks in tokens.items():
        token_rules(rel, toks, findings, sites)
    crash_sites = sites["ENVY_CRASH_POINT"]
    crash_inventory = read_inventory(tokens.get(CRASH_INVENTORY, ()))
    rule_unique_registered("crash-point", crash_sites, crash_inventory,
                           CRASH_INVENTORY, findings)
    rule_unique_registered(
        "trace-event", sites["ENVY_TRACE"],
        read_inventory(tokens.get(TRACE_INVENTORY, ())),
        TRACE_INVENTORY, findings)
    owners = site_owners(functions, crash_sites)
    rule_crash_point_coverage(functions, owners, findings)
    rule_crash_point_reachable(functions, owners, crash_inventory,
                               findings)
    rule_journal_before_mmap(functions, findings)
    rule_lock_discipline(functions, findings)
    rule_typed_id(functions, findings)
    findings.finish_unused_allows()


def print_findings(findings, github):
    for relpath, line, rule, message in sorted(findings.items):
        if github:
            print(f"::error file={relpath},line={line}::"
                  f"[{rule}] {message}")
        else:
            print(f"{relpath}:{line}: [{rule}] {message}")


# ---- self test -----------------------------------------------------

EXPECT_RE = re.compile(r"//\s*expect-finding:\s*([a-z-]+)")


def self_test(root):
    """Run the real scan over the fixture tree tests/analyze/ (laid
    out like the repo, with its own inventories): each file's
    findings must match its `// expect-finding: <rule>` lines
    exactly, and every rule must fire somewhere."""
    fixture_root = os.path.join(root, "tests", "analyze")
    files = source_files(fixture_root)
    if not files:
        print(f"envy-analyze: no fixtures under {fixture_root}/src",
              file=sys.stderr)
        return 2
    findings = Findings()
    analyze(fixture_root, files, InternalFrontend(), findings)

    got = {}  # relpath -> {rule: count}
    for rel, _line, rule, _msg in findings.items:
        per_file = got.setdefault(rel, {})
        per_file[rule] = per_file.get(rule, 0) + 1
    failures = []
    n_fire = 0
    for rel in files:
        with open(os.path.join(fixture_root, rel), encoding="utf-8") as f:
            expected = {}
            for rule in EXPECT_RE.findall(f.read()):
                expected[rule] = expected.get(rule, 0) + 1
        n_fire += bool(expected)
        if got.get(rel, {}) != expected:
            failures.append(f"{rel}: expected {expected} but got "
                            f"{got.get(rel, {})}")
    fired = {item[2] for item in findings.items}
    silent = [r for r in RULES + ("unused-allow",) if r not in fired]
    if silent:
        failures.append(f"no firing fixture for: {', '.join(silent)}")
    if failures:
        print("envy-analyze self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        for rel, line, rule, msg in sorted(findings.items):
            print(f"  (finding) {rel}:{line}: [{rule}] {msg}")
        return 1
    print(f"envy-analyze self-test OK: {n_fire} firing and "
          f"{len(files) - n_fire} near-miss fixtures behave as "
          "declared")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json path (default: "
                         "ROOT/build/compile_commands.json)")
    ap.add_argument("--frontend", default="auto",
                    choices=("auto", "internal", "libclang"),
                    help="parser frontend (default: auto -- "
                         "libclang when importable, else internal)")
    ap.add_argument("--github", action="store_true",
                    help="emit findings as GitHub annotations")
    ap.add_argument("--self-test", action="store_true",
                    help="check every rule against the fixture "
                         "corpus in tests/analyze/, then exit")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)

    if not os.path.isdir(os.path.join(root, "src")):
        print(f"envy-analyze: no src/ under {root}", file=sys.stderr)
        return 2

    compdb = args.compdb or os.path.join(root, "build",
                                         "compile_commands.json")
    notes = []
    if args.frontend == "internal":
        frontend = InternalFrontend()
    else:
        frontend = make_frontend(args.frontend, root, compdb, notes)
    for note in notes:
        print(f"envy-analyze: {note}", file=sys.stderr)

    files = source_files(root)
    findings = Findings()
    try:
        analyze(root, files, frontend, findings)
    except RuntimeError as e:
        print(f"envy-analyze: internal error: {e}", file=sys.stderr)
        return 2

    print_findings(findings, args.github)
    if findings.items:
        print(f"envy-analyze: {len(findings.items)} finding(s) "
              f"[{frontend.name} frontend]")
        return 1
    print(f"envy-analyze: clean [{frontend.name} frontend, "
          f"{len(files)} files]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
