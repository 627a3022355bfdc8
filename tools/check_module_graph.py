#!/usr/bin/env python3
"""Module-graph gate for the libraries under src/.

Each src/<dir>/CMakeLists.txt builds one library (add_library) and
names what it links (target_link_libraries ... PUBLIC ...). This
script reads those files, without a build, and fails when

  * the library link graph has a cycle, or
  * a source file under src/<dir>/ includes "<module>/..." where
    <module> is another src/ directory whose library is not in
    <dir>'s link closure (the library itself plus everything it
    links, transitively).

Targets that are not dbsens libraries (Threads::Threads, ...) are
ignored. Exits 0 when the graph is clean, 1 otherwise.

Usage: check_module_graph.py [--src SRC_DIR]
"""

import argparse
import os
import re
import sys

ADD_LIBRARY = re.compile(r"add_library\(\s*(\S+)")
LINK = re.compile(r"target_link_libraries\(\s*(\S+)([^)]*)\)", re.S)
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^/"]+)/', re.M)
KEYWORDS = {"PUBLIC", "PRIVATE", "INTERFACE"}


def strip_comments(text):
    return re.sub(r"#[^\n]*", "", text)


def read_modules(src):
    """Map module dir -> (library name, [linked targets])."""
    modules = {}
    for d in sorted(os.listdir(src)):
        path = os.path.join(src, d, "CMakeLists.txt")
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            text = strip_comments(f.read())
        lib = ADD_LIBRARY.search(text)
        if not lib:
            continue
        links = []
        for target, args in LINK.findall(text):
            if target != lib.group(1):
                continue
            words = args.split()
            # Only the PUBLIC section: what dependants can rely on.
            section = None
            for w in words:
                if w in KEYWORDS:
                    section = w
                elif section == "PUBLIC":
                    links.append(w)
        modules[d] = (lib.group(1), links)
    return modules


def find_cycle(graph):
    """Return one cycle as a list of nodes, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    stack = []

    def visit(n):
        color[n] = GREY
        stack.append(n)
        for m in graph[n]:
            if color[m] == GREY:
                return stack[stack.index(m):] + [m]
            if color[m] == WHITE:
                found = visit(m)
                if found:
                    return found
        stack.pop()
        color[n] = BLACK
        return None

    for n in sorted(graph):
        if color[n] == WHITE:
            found = visit(n)
            if found:
                return found
    return None


def closure(graph, lib):
    seen = {lib}
    todo = [lib]
    while todo:
        for m in graph[todo.pop()]:
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return seen


def source_files(root):
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                yield os.path.join(dirpath, name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    args = ap.parse_args()
    src = os.path.normpath(args.src)

    modules = read_modules(src)
    lib_of = {d: lib for d, (lib, _) in modules.items()}
    libs = set(lib_of.values())
    graph = {lib: sorted(set(l for l in links if l in libs))
             for lib, links in modules.values()}

    errors = []
    cycle = find_cycle(graph)
    if cycle:
        errors.append("link cycle: " + " -> ".join(cycle))

    for d, lib in sorted(lib_of.items()):
        reach = closure(graph, lib)
        for path in source_files(os.path.join(src, d)):
            with open(path) as f:
                text = f.read()
            for m in sorted(set(INCLUDE.findall(text))):
                if m in lib_of and lib_of[m] not in reach:
                    errors.append(
                        "%s includes %s/ but %s does not link %s"
                        % (os.path.relpath(path, src), m, lib,
                           lib_of[m]))

    for e in errors:
        print("module graph: " + e)
    if errors:
        return 1
    print("module graph: %d libraries, acyclic, every include linked"
          % len(libs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
