"""The pack pass of the PTX -> NumPy generator (DESIGN.md §12).

Built for a launch width, the generator merges the per-word statements
a kernel repeats into 2-D NumPy calls, bitwise: a pack runs the same
IEEE operation on the same operands per element.  Loads and stores
pack by address (the linear forms of their words); arithmetic packs by
the templates the code generator declared for it
(:meth:`repro.ptx.builder.KernelBuilder.enter`): one ordinal of one
template is the same operation across its members, so nothing is
searched for.  :class:`PackPass` is the translator's part that does
it (:class:`repro.driver.jitcompiler._Translator` derives from it).
"""

from __future__ import annotations

import bisect
import heapq
import operator
import re

from ..ptx.isa import PTXType
from .forms import _ADD, _FMA, _MUL, _NP_DTYPE, _UFUNC, _Stmt

#: the largest array (rows x lanes x itemsize) the pack pass forms.
#: Above it a pack's temporaries stop paying: at 4 096 lanes a packed
#: f64 body ran slower than the per-word one (DESIGN.md §12)
PACK_BYTES = 64 * 1024
#: the fewest statements one pack replaces: three, so SU(3)'s colour
#: rows pack
PACK_MIN = 3
#: the cost the pack pass rates a cover with (µs at 256 f64 lanes,
#: NumPy 2.4 on a 2-core x86 box): a per-word statement, and a ``k``-row
#: pack ``a + b*k`` — ``_COST_FLAT`` when every operand is a contiguous
#: slice (or one value), ``_COST_SLOW`` when one is strided, broadcast
#: along rows or reshaped (NumPy leaves its contiguous loops)
_COST_WORD = 0.8
_COST_FLAT = (0.5, 0.1)
_COST_SLOW = (1.2, 0.3)
#: the float type of an op width
_FLOAT = {4: PTXType.F32, 8: PTXType.F64}
#: a vector local and the subscript after it, if any (``_v5[0:6:2]``)
_ROWS_READ = re.compile(r"(_v(?<![\w']_v)\d+)(\[[^\]]*\])?")


def _first(pair):
    return pair[0]


def _swap(pair):
    return pair[1], pair[0]


def _diff(x: tuple, y: tuple) -> tuple:
    """``x - y`` element-wise."""
    return tuple(map(operator.sub, x, y))


def _joined(runs, cap: int, zero: tuple) -> list:
    """Cover ``(points, step)`` runs with blocks of consecutive runs of
    equal length whose first points step evenly (an operand stepping
    along both axes in row-major order), a run that joins none a
    block of its own: ``(block, steps)`` pairs as
    :meth:`PackPass._blocks` returns them."""
    out, block, si = [], [], None
    for run, sj in runs + [((), None)]:
        n2 = len(run)
        if block and n2 == len(block[0][0]) \
                and (len(block) + 1) * n2 <= cap \
                and (n2 == 1 or sj == block[0][1]):
            d = _diff(run[0][1], block[-1][0][0][1])
            if si in (None, d) and (n2 == 1 or all(
                    not a or not b or a == n2 * b for a, b in zip(d, sj))):
                block.append((run, sj))
                si = d
                continue
        if block and len(block) * len(block[0][0]) >= PACK_MIN:
            out.append(([r for r, _ in block], list(zip(
                block[0][0][0][1], si or zero, block[0][1] or zero))))
        block, si = [(run, sj)], None
    return out


def _fast(block, steps) -> bool:
    """Every operand of a pack over ``block`` is a contiguous slice."""
    n1, n2 = len(block), len(block[0])
    if n2 == 1:
        return all(si == 1 for _, si, _ in steps)
    return all(sj == 1 and (n1 == 1 or si == n2) for _, si, sj in steps)


def _cost(block, steps) -> float:
    """The rated cost of one pack over ``block`` (see ``_COST_FLAT``)."""
    a, b = _COST_FLAT if _fast(block, steps) else _COST_SLOW
    return a + b * len(block) * len(block[0])


def _flat(n1: int, n2: int, si: int, sj: int) -> int | None:
    """The step of the rows ``r0 + i*si + j*sj`` in row-major member
    order, or None when they do not step evenly in it."""
    if n2 == 1:
        return si
    if n1 == 1 or si == n2 * sj:
        return sj
    return None


def _topological(users, wait, keys) -> list | None:
    """Kahn's order of a graph (``users[u]``: the nodes after ``u``;
    ``wait[u]``: how many nodes come before it, consumed), taking
    among the ready nodes the least of ``keys`` (node ``u``'s key is
    ``keys[u]``, a node number or a ``(key, node)`` pair).  None when
    the graph has a cycle."""
    keys = list(keys)
    ready = [keys[u] for u, n in enumerate(wait) if not n]
    heapq.heapify(ready)
    order = []
    while ready:
        k = heapq.heappop(ready)
        u = k[1] if isinstance(k, tuple) else k
        order.append(u)
        for v in users[u]:
            wait[v] -= 1
            if not wait[v]:
                heapq.heappush(ready, keys[v])
    return order if len(order) == len(wait) else None


def _rows_read(subscript: str, height: int) -> set | None:
    """The rows of a pack of ``height`` rows that ``subscript`` (``""``,
    ``[r]`` or a slice, as :meth:`PackPass._rows_text` writes them)
    reads; None: all of them."""
    if not subscript:
        return None
    parts = subscript[1:-1].split(":")
    if len(parts) == 1:
        return {int(parts[0])}
    bounds = [int(x) if x.strip() else None for x in parts]
    return set(range(*slice(*bounds).indices(height)))


class PackPass:
    """The pack pass, run on the translator's statement records after
    the walk (:meth:`_pack`).

    A pack is one NumPy call on a ``(k, lanes)`` array whose row ``j``
    is member ``j``; it is placed at its first member (a store pack at
    its last), the other members are dropped, and every remaining
    reader of a member reads its row.  Loads are never moved above a
    store to their word, stores never below a load of their field, and
    arithmetic runs the same IEEE op on the same operands per element:
    the packed body is bitwise the per-word one (DESIGN.md §12).  The
    translator supplies the records (``_stmts``, from ``_pack_from``
    on), ``lanes``, ``fresh``, ``_scalar``, ``_facts``, ``_borrow`` and
    ``_out_form`` (the text of a write into a merged array).
    """

    def _pack(self) -> dict[str, str]:
        """Form the packs; returns member local -> its row's text.  A
        pack is placed at its first member (a store pack at its last);
        with merged arrays the body is then ordered by what each
        statement reads (:meth:`_schedule`), and should that find no
        order, packed again without them."""
        stmts = self._stmts
        for self._merging in (True, False):
            self._stmts = list(stmts)
            self._row, self.packs = {}, []
            self._height: dict[str, int] = {}
            self._at: dict[int, _Stmt] = {}      # index -> the pack placed
            self._gone: set[int] = set()         # indices of packed members
            self._before: dict[int, tuple] = {}  # index -> placed before it
            #: merged arrays; a writer statement -> (array, its rows)
            self._merged: set[str] = set()
            self._writes: dict[int, tuple] = {}
            self._tried: set[tuple] = set()      # covers already sought
            self._covers: dict = {}              # pattern -> its cover
            self._pending: dict = {}             # value -> its group
            self._pack_loads()
            if self._row:
                self._pack_ops()
                self._pack_stores()
            self._stmts = [
                s for i, st in enumerate(self._stmts)
                for s in (*self._before.get(i, ()), self._at.get(i, st))
                if s is not st or i not in self._gone]
            sub = {d: f"{p}[{r}]" for d, (p, r) in self._row.items()}
            if not self._merged or self._schedule(sub):
                return sub      # without merging, always

    def _schedule(self, sub) -> bool:
        """Order the statements after the retire by what they read: a
        reader of a merged array's rows after their writers, everything
        else after its operands, memory accesses (and the readers of a
        borrowed load) in program order; each as early as the first
        reader it feeds needs it, ties in placement order, and a merged
        array allocated just before its first writer.  False when the
        reads form a cycle."""
        head = self._stmts[:self._pack_from]
        alloc = {st.dst: st for st in self._stmts[self._pack_from:]
                 if st.dst in self._merged}
        tail = [st for st in self._stmts[self._pack_from:]
                if st.dst not in alloc]
        defs, writers, texts = {}, {}, []
        for u, st in enumerate(tail):
            w = self._writes.get(id(st))
            if w is not None:
                writers.setdefault(w[0], []).append((w[1], u))
                # its operands, not its ``out=``
                texts.append(", ".join(sub.get(a, a) for a in st.args))
                continue
            if st.dst is not None:
                defs[st.dst] = u
            texts.append(st.render(sub).split(" = ", 1)[-1])
        deps = [set() for _ in tail]
        chain = None
        for u, st in enumerate(tail):
            names = _ROWS_READ.findall(texts[u])
            for name, rows in names:
                if name in alloc:
                    rows = _rows_read(rows, self._height[name])
                    deps[u].update(v for r, v in writers[name]
                                   if rows is None or r & rows)
                elif name in defs:
                    deps[u].add(defs[name])
            if st.mem is not None or st.facts is not None or any(
                    name in self._borrow for name, _ in names):
                if chain is not None:
                    deps[u].add(chain)
                chain = u
            deps[u].discard(u)
        users = [[] for _ in tail]
        wait = [len(d) for d in deps]
        for u, d in enumerate(deps):
            for v in d:
                users[v].append(u)
        topo = _topological(users, list(wait), range(len(tail)))
        if topo is None:
            return False
        # a merged array's readers follow its last writer; were its
        # writers left at their own placements, the array would live
        # across the readers of every other one
        need = list(range(len(tail)))
        for u in reversed(topo):
            need[u] = min([u] + [need[v] for v in users[u]])
        order = []
        for u in _topological(users, wait, [(need[u], u) for u in
                                            range(len(tail))]):
            w = self._writes.get(id(tail[u]))
            if w is not None and w[0] in alloc:      # its first writer
                order.append(alloc.pop(w[0]))
            order.append(tail[u])
        self._stmts = head + order
        return True

    def _cap(self, nbytes: int) -> int:
        """The most rows of ``nbytes`` words one pack may hold."""
        return PACK_BYTES // (self.lanes * nbytes)

    def _rows_text(self, pack: str, r0: int, step: int, k: int) -> str:
        """Rows ``r0, r0 + step, ...`` (``k`` of them) of ``pack``."""
        if step == 0:
            return f"{pack}[{r0}]"
        if step == 1 and r0 == 0 and k == self._height[pack]:
            return pack
        stop = r0 + step * k
        stop = "" if stop < 0 else stop
        return (f"{pack}[{r0}:{stop}]" if step == 1
                else f"{pack}[{r0}:{stop}:{step}]")

    def _plane(self, key, word: int, stride) -> str:
        """The launch scalar naming word plane ``word`` of a field key."""
        _, sh, region, const, _ = key
        base = region if not const else f"({region} + {const})"
        return self._scalar(f"({base} >> {sh})"
                            + (f" + {word} * {stride}" if word else ""))

    def _pack_loads(self) -> None:
        """Pack the loads of each field key.  A group collects them in
        program order and closes where a store may write a word a later
        member reads: the pack is placed at its first member."""
        groups, live = [], {}     # key -> [members, stored words, stride]
        for i in range(self._pack_from, len(self._stmts)):
            st = self._stmts[i]
            if st.mem is None or (
                    st.mem[0] == "ld" and self._cap(1 << st.mem[2]) < PACK_MIN
                    or st.mem[0] == "st" and not live):
                continue      # a load too wide to pack; a store no group sees
            kind, region, key, word, stride = self._facts(st)
            if kind == "ld":
                if key is None:
                    continue
                g = live.get(key)
                if g is not None and (word in g[1] or None not in (
                        stride, g[2]) and stride != g[2]):
                    groups.append((key, live.pop(key)))
                    g = None
                if g is None:
                    g = live[key] = [[], set(), None]
                g[0].append((i, word))
                g[2] = g[2] or stride
                continue
            for k2 in list(live):             # a store
                g = live[k2]
                if region is not None and k2[2] != region:
                    continue
                if key is not None and key[:4] == k2[:4] and (
                        stride is None or stride == g[2]):
                    g[1].add(word)          # the same word planes
                else:
                    groups.append((k2, live.pop(k2)))
        groups.extend(live.items())
        for key, (members, _, stride) in groups:
            chunks = []
            for w in sorted({w for _, w in members}):
                if chunks and w - chunks[-1][0] < self._cap(1 << key[1]):
                    chunks[-1].append(w)
                else:
                    chunks.append([w])
            for chunk in chunks:
                if len(chunk) >= PACK_MIN:
                    self._form_load(key, stride, chunk[0], chunk[-1],
                                    [m for m in members
                                     if chunk[0] <= m[1] <= chunk[-1]])

    def _form_load(self, key, stride, c0: int, c1: int, members) -> None:
        view, _, region, _, cols = key
        pack, h = self.fresh(), c1 - c0 + 1
        self._height[pack] = h
        w0 = self._plane(key, c0, stride)
        form = (f"_ldp({view}, {w0}, {stride}, {h}, _nt, _pre, _G)"
                if cols == "_G" else
                f"_gvp({view}, {w0}, {stride}, {h}, {cols})")
        self._at[members[0][0]] = _Stmt(
            pack, form, facts=("ld", region, None, 0, None))
        for i, w in members:
            self._gone.add(i)
            self._row[self._stmts[i].dst] = (pack, w - c0)
        self.packs.append(("ld" if cols == "_G" else "gv", len({
            w for _, w in members})))

    def _pack_ops(self) -> None:
        """Pack element-wise statements by the template the code
        generator declared for them: the ordinals of one template are
        the same operations across its members (the components of one
        node), so a group never needs finding.  Members of one form
        that read one pack, or one value, per operand slot pack in
        blocks (:meth:`_blocks`).  A member whose operand is not a row
        yet — a colour sum's running total, or a value of a template
        that starts later — waits for a later round; the rounds end
        when one packs nothing.  Then the products left per word — an
        fma whose addend is a running sum — pack the same way, each
        fma keeping its own add."""
        stmts, row = self._stmts, self._row
        groups: dict = {}
        for i in range(self._pack_from, len(stmts)):
            st = stmts[i]
            if st.tmpl is not None:
                groups.setdefault((st.tmpl[0], st.form), []).append(i)
        # a value another template computes may still become a row:
        # read as one, it is a slice, not a row broadcast to every
        # member, so its readers wait for it first
        self._pending = {stmts[i].dst: k for k, m in groups.items()
                         for i in m}
        waiting = self._rounds(groups, False)
        self._pending = {}
        self._rounds(waiting, False)
        # NumPy rounds ``x * y`` before ``+ s``: a packed product with
        # per-word adds is bitwise the fma
        prods: dict = {}
        for i in range(self._pack_from, len(stmts)):
            st = stmts[i]
            if st.tmpl is not None and i not in self._gone \
                    and st.form in (_MUL, _FMA) \
                    and (st.args[0] in row or st.args[1] in row):
                prods.setdefault(st.tmpl[0], []).append(i)
        self._rounds(prods, True)

    def _rounds(self, groups: dict, split: bool) -> dict:
        """Pack ``groups`` (key -> statement indices) round by round,
        each in program order of its first member; a group goes to the
        next round when a value its members read became a row.
        Returns the groups left with a member waiting on a value
        another template computes."""
        stmts, row = self._stmts, self._row
        groups = {k: m for k, m in groups.items() if len(m) >= PACK_MIN}
        awake, waiting = list(groups), set()
        while awake:
            rows = set(row)
            for k in awake:
                if self._pack_group(groups[k], split):
                    waiting.add(k)
            new = row.keys() - rows       # what a member may now read
            groups = {k: m for k, m in ((k, [
                i for i in m if i not in self._gone
                and stmts[i].tmpl is not None]) for k, m in groups.items())
                if len(m) >= PACK_MIN}
            awake = [k for k, m in groups.items() if not new.isdisjoint(
                a for i in m for a in stmts[i].args)]
        return {k: groups[k] for k in waiting if k in groups}

    def _pack_group(self, members, split: bool) -> bool:
        """Pack the members of one template and form that read one
        pack, or one value, per operand slot: the same operation on
        corresponding operands.  ``split``: their products only.  The
        blocks of one group write one array when their form has a
        ufunc (:meth:`_merge`), so a reader of members from several
        blocks reads one pack.  True when a member waits on a value
        another group computes (``_pending``): then the group packs
        nothing yet, so its members, all ready at once, share its
        merged arrays.  A member waiting on its own group (a running
        sum) waits alone."""
        stmts, row, gone, pending = (self._stmts, self._row, self._gone,
                                     self._pending)
        subs: dict = {}
        waits = False
        for i in members:
            st = stmts[i]
            if i in gone or st.tmpl is None:
                continue
            key, rows, wait = [st.op] if split else [st.op, st.form], [], False
            for a in (st.args[:2] if split else st.args):
                r = row.get(a)
                if r is None:
                    key.append((a,))
                    g = pending.get(a)
                    if g is not None and g != (st.tmpl[0], st.form):
                        return True
                    wait = wait or g is not None
                else:
                    key.append(r[0])
                    rows.append(r[1])
            if wait:
                waits = True
            elif rows:
                subs.setdefault(tuple(key), []).append(
                    (st.tmpl[1:], tuple(rows), i))
        formed = []
        for key, points in subs.items():
            tried = (key, *(i for _, _, i in points))
            if len(points) >= PACK_MIN and tried not in self._tried:
                self._tried.add(tried)    # a cover only the rows change
                formed += [(key[1 if split else 2:], block, steps) for
                           block, steps in self._cover(points,
                                                       self._cap(key[0]))]
        outs = self._merge(formed) if self._merging and not split else {}
        adds = self._joined_adds(formed, outs)
        for key, block, steps in formed:
            self._form_op(key, block, steps, split, outs.get(id(block)),
                          adds.get(id(block), False))
        return waits

    def _joined_adds(self, formed, outs) -> dict:
        """The fma blocks of one group that write consecutive rows of
        one merged array, each with the addend rows the same distance
        further down one other pack: every block only multiplies, and
        the one placed last adds the whole addend at once — one call
        where each block made its own (NumPy rounds the product first
        either way).  Returns ``id(block) -> None`` (multiply only) or
        the rows that block's add writes and reads."""
        if len(formed) < 2 or len(outs) != len(formed):
            return {}
        spans, src = [], set()
        for key, block, steps in formed:
            pack, r0 = outs[id(block)]
            n1, n2 = len(block), len(block[0])
            j = sum(isinstance(p, str) for p in key[:2])  # the addend's
            if self._stmts[block[0][0][2]].form != _FMA \
                    or not isinstance(key[2], str) or key[2] == pack \
                    or _flat(n1, n2, *steps[j][1:]) != 1:
                return {}
            src.add((pack, key[2], steps[j][0] - r0))
            spans.append((r0, r0 + n1 * n2))
        spans.sort()
        if len(src) != 1 or any(a[1] != b[0]
                                for a, b in zip(spans, spans[1:])):
            return {}
        (pack, addend, d), = src
        lo, hi = spans[0][0], spans[-1][1]
        last = max(formed, key=lambda f: min(pt[2] for line in f[1]
                                             for pt in line))[1]
        adds = {id(b): None for _, b, _ in formed}
        adds[id(last)] = (self._rows_text(pack, lo, 1, hi - lo),
                          self._rows_text(addend, lo + d, 1, hi - lo),
                          set(range(lo, hi)))
        return adds

    def _cover(self, points, cap: int):
        """:meth:`_blocks` of ``points``, kept per pattern: the cover
        depends only on the members and on the rows relative to the
        first point's, which every direction of a Dslash repeats."""
        r0 = points[0][1]
        key = (cap, tuple((m, _diff(r, r0)) for m, r, _ in points))
        cover = self._covers.get(key)
        if cover is None:
            at = {id(pt): n for n, pt in enumerate(points)}
            cover = self._covers[key] = [
                ([[at[id(pt)] for pt in line] for line in block],
                 [(r - b, si, sj) for (r, si, sj), b in zip(steps, r0)])
                for block, steps in self._blocks(points, cap)]
        return [([[points[n] for n in line] for line in block],
                 [(r + b, si, sj) for (r, si, sj), b in zip(steps, r0)])
                for block, steps in cover]

    @staticmethod
    def _blocks(points, cap: int):
        """Cover ``(member, rows, index)`` points with blocks: grids of
        members whose operand rows step evenly along both axes, ``r0 +
        i*si + j*sj``, at most ``cap`` members.  A member is a pair of
        coordinates ``(outer, inner)`` (with one of them empty, the
        first index and the rest) — colour and spin of a component, or
        a component and the index a product contracts — so ``U[a,b] ·
        h[s,b]`` packs over both.  A grid row is a run of columns of
        one ordinal; consecutive rows of equal length may join a block
        while the steps hold (an operand stepping along both axes in
        row-major order).  Of the covers with either coordinate as
        rows, joined or not, the one :func:`_cost` rates cheapest is
        taken; members whose rows follow their order one by one are
        one contiguous pack, which none is cheaper than.  Returns
        ``(block, steps)`` pairs: ``block`` the rows of points,
        ``steps`` per operand ``(r0, si, sj)``."""
        run = sorted(points, key=_first)
        step = _diff(run[1][1], run[0][1])
        if len(run) <= cap and all(d == 1 for d in step) and all(
                _diff(b[1], a[1]) == step for a, b in zip(run[1:], run[2:])):
            return [([run], [(r, 0, 1) for r in run[0][1]])]
        best, coords = None, []
        for pt in points:
            ordinal, (p, q) = pt[0]
            coords.append((ordinal, (p, q) if p and q
                           else ((p or q)[:1], (p or q)[1:]), pt))
        for outer in (0, 1):
            lines: dict = {}
            for ordinal, axes, pt in coords:
                lines.setdefault((ordinal, axes[outer]), []).append(
                    (axes[1 - outer], pt))
            runs = {}                 # line -> [(points, their step)]
            for key in sorted(lines):
                line = [pt for _, pt in sorted(lines[key], key=_first)]
                rs = runs[key] = []
                run, sj = [line[0]], None
                for pt in line[1:]:
                    d = _diff(pt[1], run[-1][1])
                    if len(run) < cap and sj in (None, d):
                        run.append(pt)
                        sj = d
                    else:
                        rs.append((run, sj))
                        run, sj = [pt], None
                rs.append((run, sj))
            # each run alone, then runs of equal length joined, the
            # lines in ordinal order or (re and im, say) coordinate order
            zero = (0,) * len(points[0][1])
            for n in range(3 if len({o for o, _ in runs}) > 1 else 2):
                if n == 0:
                    out = [([r], list(zip(r[0][1], zero, sj or zero)))
                           for rs in runs.values() for r, sj in rs
                           if len(r) >= PACK_MIN]
                else:
                    out = _joined([r for k in sorted(runs, key=(
                        None if n == 1 else _swap)) for r in runs[k]],
                        cap, zero)
                left = len(points) - sum(len(b) * len(b[0]) for b, _ in out)
                cost = sum(_cost(b, st) for b, st in out) + _COST_WORD * left
                if best is None or cost < best[0]:
                    best = (cost, out)
                if not left and len(out) == 1 and _fast(*out[0]):
                    return out        # one contiguous pack: none is cheaper
        return best[1]

    def _merge(self, formed) -> dict:
        """The array the blocks of one group write into, so a reader of
        members of several blocks reads one pack: when two or more
        flat blocks of a form with a ufunc land on consecutive rows of
        one array laid out row-major over their members' ``(ordinal,
        outer, inner)``, each writes its slice (``out=``; a strided
        write would cost what it saves).  Returns ``id(block) ->
        (array, first row)``; the array is allocated before the first
        writer (:meth:`_schedule`)."""
        blocks = [b for _, b, st in formed
                  if all(_flat(len(b), len(b[0]), si, sj) is not None
                         for _, si, sj in st)]
        if len(blocks) < 2 or (self._stmts[blocks[0][0][0][2]].form
                               not in _UFUNC.keys() | {_FMA}):
            return {}
        while len(blocks) >= 2:
            order = sorted(pt[0] for b in blocks for line in b for pt in line)
            at = {m: n for n, m in enumerate(order)}
            starts = {}
            for b in blocks:
                rows = [at[pt[0]] for line in b for pt in line]
                if rows == list(range(rows[0], rows[0] + len(rows))):
                    starts[id(b)] = rows[0]
            if len(starts) == len(blocks):
                break
            blocks = [b for b in blocks if id(b) in starts]
        else:
            return {}
        name = self.fresh()
        first = min(pt[2] for b in blocks for line in b for pt in line)
        self._height[name] = len(order)
        self._before[first] = self._before.get(first, ()) + (_Stmt(
            name, f"np.empty(({len(order)}, _nt), "
            f"{_NP_DTYPE[_FLOAT[self._stmts[first].op]]})"),)
        self._merged.add(name)
        return {i: (name, r) for i, r in starts.items()}

    def _form_op(self, key, block, steps, split: bool = False,
                 out=None, add=False) -> None:
        """Place one op pack at the block's first member.  An operand
        stepping along one axis is sliced along it and broadcast along
        the other; the grid's result is reshaped to its rows, member
        ``(i, j)`` row ``i*n2 + j`` (a view).  ``split``: the members
        are products — a ``mul`` becomes a row of the pack, an fma the
        add of its row and its own addend.  ``out``: the block writes
        rows of a merged array (:meth:`_merge`) instead.  ``add`` (an
        fma block's, :meth:`_joined_adds`): False, it adds its own
        addend; None, it only multiplies; else the rows it writes and
        reads, it multiplies and then adds every joined addend."""
        run = [pt for line in block for pt in line]
        first = min(i for _, _, i in run)
        n1, n2 = len(block), len(block[0])
        pack, k = self.fresh(), n1 * n2
        flat = all(_flat(n1, n2, si, sj) is not None for _, si, sj in steps)
        exprs, j = [], 0
        for part in key:
            if isinstance(part, tuple):       # the same value throughout
                exprs.append(part[0])
                continue
            r0, si, sj = steps[j]
            j += 1
            if flat:
                exprs.append(self._rows_text(part, r0,
                                             _flat(n1, n2, si, sj), k))
            elif not si:
                exprs.append(self._rows_text(part, r0, sj, n2))
            elif not sj:
                exprs.append(self._rows_text(part, r0, si, n1) + "[:, None]")
            else:
                exprs.append(self._rows_text(part, r0, sj, k)
                             + f".reshape({n1}, {n2}, -1)")
        form = _MUL if split else self._stmts[first].form
        if out is not None:
            pack, r0 = out
            rows = set(range(r0, r0 + k))
            if add is False:
                text = self._out_form(form, self._rows_text(pack, r0, 1, k))
            else:           # the product alone, and the joined add
                text = self._out_form(_MUL, self._rows_text(pack, r0, 1, k))
                exprs.pop()
                if add is not None:
                    text += "; " + self._out_form(_ADD, add[0])
                    exprs += add[:2]
                    rows = add[2]
            placed = _Stmt(None, text, tuple(exprs))
            self._writes[id(placed)] = (pack, rows)
        else:
            r0 = 0
            self._height[pack] = k
            if not flat:
                form += f".reshape({k}, -1)"
            # a value operand stays an argument: a later split may pack it
            placed = _Stmt(pack, form, tuple(exprs))
        if split:
            self._before[first] = self._before.get(first, ()) + (placed,)
        else:
            self._at[first] = placed
        for n, (_, _, i) in enumerate(run):
            st = self._stmts[i]
            if split and st.form == _FMA:
                self._stmts[i] = _Stmt(st.dst, "({} + {})",
                                       (f"{pack}[{n}]", st.args[2]), op=st.op)
            else:
                self._gone.add(i)
                self._row[st.dst] = (pack, r0 + n)
        self.packs.append(("op", k))

    def _pack_stores(self) -> None:
        """Pack the block stores of one field whose values are lane
        vectors — rows of any packs or per-word locals — placed at the
        last member.  A run splits where a member stores a word the run
        already stores, or where any other access of that field (a load
        pack included) or of unknown memory comes between two members."""
        stmts = self._stmts
        vec = set(self._row)      # the locals known to hold a lane vector
        touch: dict = {}          # region -> indices of its accesses
        cands: dict = {}
        for i in range(self._pack_from, len(stmts)):
            st = stmts[i]
            if st.dst is not None and (st.mem[4] is not None if st.mem else
                                       st.op and any(a in vec
                                                     for a in st.args)):
                vec.add(st.dst)
            st = self._at.get(i, None if i in self._gone else st)
            if st is None or st.mem is None and st.facts is None:
                continue
            kind, region, key, word, stride = self._facts(st)
            touch.setdefault(region, []).append(i)
            if kind == "st" and key is not None and st.args[-1] in vec:
                cands.setdefault(key, []).append((i, word, stride))

        def between(a, b, region):
            return any(bisect.bisect_right(t, a) < bisect.bisect_left(t, b)
                       for t in (touch.get(region, ()), touch.get(None, ())))

        for key, members in cands.items():
            runs, run, stride = [], [], None
            for m in members:
                clash = None not in (m[2], stride) and m[2] != stride
                if run and (clash or m[1] in {w for _, w, _ in run}
                            or between(run[-1][0], m[0], key[2])):
                    runs.append((run, stride))
                    run, stride = [], None
                run.append(m)
                stride = stride or m[2]
            runs.append((run, stride))
            cap = self._cap(1 << key[1])
            for run, stride in runs:
                # words stepping up evenly, from each run's first word
                pts = sorted((w, i) for i, w, _ in run)
                while len(pts) >= PACK_MIN:
                    n, step = 2, pts[1][0] - pts[0][0]
                    while n < min(len(pts), cap) \
                            and pts[n][0] - pts[n - 1][0] == step:
                        n += 1
                    if n < PACK_MIN:
                        n = 1
                    else:
                        self._form_store(key, stride, pts[:n], step)
                    pts = pts[n:]

    def _form_store(self, key, stride, run, step: int) -> None:
        view, _, region, _, _ = key
        c0 = run[0][0]
        k = len(run)
        order = tuple(n for n, _ in sorted(enumerate(run),
                                           key=lambda t: t[1][1]))
        vals = [self._stmts[i].args[-1] for _, i in run]
        rows = [self._row.get(v) for v in vals]
        if None not in rows and len({p for p, _ in rows}) == 1 and all(
                r - rows[0][1] == n * (rows[1][1] - rows[0][1])
                for n, (_, r) in enumerate(rows)):
            vals = self._rows_text(rows[0][0], rows[0][1],
                                   rows[1][1] - rows[0][1], k)
        else:
            vals = self._store_parts(vals, rows)
        last = max(i for _, i in run)
        self._at[last] = _Stmt(None, (
            f"_stp({view}, {self._plane(key, c0, stride)}, {stride}, {k}, "
            f"{step}, _nt, _pre, _G, {vals}, {order})"),
            facts=("st", region, None, 0, None))
        self._gone.update(i for _, i in run)
        self.packs.append(("st", k))

    def _store_parts(self, vals, rows) -> str:
        """The values of a store pack whose rows are not one slice, as
        ``(start, stop, step, rows)`` parts — the rows of one pack at
        positions and rows that both step evenly, a per-word local
        alone — each one slice assignment (:func:`_stp`), where a tuple
        of rows would be copied into an array first."""
        by: dict = {}
        for j, (v, r) in enumerate(zip(vals, rows)):
            by.setdefault(v if r is None else r[0], []).append(
                (j, None if r is None else r[1]))
        parts = []
        for src, pts in by.items():
            while pts:
                (j0, r0), n, (dj, dr) = pts[0], 1, (1, 0)
                if r0 is not None and len(pts) > 1:
                    dj, dr = _diff(pts[1], pts[0])
                    n = 2
                    while n < len(pts) and _diff(pts[n], pts[n - 1]) == (
                            dj, dr):
                        n += 1
                text = src if r0 is None else self._rows_text(src, r0, dr, n)
                parts.append(f"({j0}, {j0 + dj * (n - 1) + 1}, {dj}, {text})")
                pts = pts[n:]
        return "({},)".format(", ".join(parts))

