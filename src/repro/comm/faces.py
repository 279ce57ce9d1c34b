"""Face gather/scatter kernels for halo exchange (paper Sec. V).

"Compute kernels gather data into a contiguous region of GPU memory
from where it's sent directly (MPI) to the destination node."  The
gather kernel packs the words of the face sites into an SoA send
buffer (word-major, face-slot fastest — coalesced); the scatter
kernel unpacks a receive buffer into the face sites of the target
field.  Both are built directly against the PTX builder and cached
per element type.
"""

from __future__ import annotations

from ..core.context import ModuleEntry
from ..ptx.builder import KernelBuilder
from ..ptx.isa import PTXType
from ..ptx.module import PTXModule

_FT = {"f32": PTXType.F32, "f64": PTXType.F64}


def build_gather_kernel(words_per_site: int, precision: str) -> PTXModule:
    """buf[w * nface + t] = field[w * nsites + sites[t]]"""
    kb = KernelBuilder(f"gather_w{words_per_site}_{precision}")
    p_lo = kb.add_param("p_lo", PTXType.S32)        # field site stride
    p_n = kb.add_param("p_n", PTXType.S32)          # face count
    p_sites = kb.add_param("p_sites", PTXType.U64, is_pointer=True)
    p_dst = kb.add_param("p_dst", PTXType.U64, is_pointer=True)   # buffer
    p_src = kb.add_param("p_src", PTXType.U64, is_pointer=True)   # field
    _emit_copy_body(kb, p_lo, p_n, p_sites, p_dst, p_src,
                    words_per_site, precision, gather=True)
    return PTXModule.from_builder(kb)


def build_scatter_kernel(words_per_site: int, precision: str) -> PTXModule:
    """field[w * nsites + sites[t]] = buf[w * nface + t]"""
    kb = KernelBuilder(f"scatter_w{words_per_site}_{precision}")
    p_lo = kb.add_param("p_lo", PTXType.S32)
    p_n = kb.add_param("p_n", PTXType.S32)
    p_sites = kb.add_param("p_sites", PTXType.U64, is_pointer=True)
    p_dst = kb.add_param("p_dst", PTXType.U64, is_pointer=True)   # field
    p_src = kb.add_param("p_src", PTXType.U64, is_pointer=True)   # buffer
    _emit_copy_body(kb, p_lo, p_n, p_sites, p_dst, p_src,
                    words_per_site, precision, gather=False)
    return PTXModule.from_builder(kb)


def _emit_copy_body(kb: KernelBuilder, p_lo, p_n, p_sites, p_dst, p_src,
                    words_per_site: int, precision: str,
                    gather: bool) -> None:
    ft = _FT[precision]
    wb = ft.nbytes
    nsites = kb.ld_param(p_lo)
    n = kb.ld_param(p_n)
    sites_base = kb.ld_param(p_sites)
    dst_base = kb.ld_param(p_dst)
    src_base = kb.ld_param(p_src)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    exit_lbl = kb.new_label("EXIT")
    kb.bra(exit_lbl, guard=oob)

    g64 = kb.cvt(gid, PTXType.S64)
    soff = kb.mul(g64, kb.imm(4, PTXType.S64))
    saddr = kb.add(sites_base, kb.cvt(soff, PTXType.U64))
    site = kb.cvt(kb.ld_global(saddr, PTXType.S32), PTXType.S64)

    # (plane bytes, this thread's site bytes) of either side of the copy
    field = (kb.words_to_bytes(nsites, wb), kb.words_to_bytes(site, wb))
    buf = (kb.words_to_bytes(n, wb), kb.words_to_bytes(g64, wb))
    (src_plane, src_site), (dst_plane, dst_site) = \
        (field, buf) if gather else (buf, field)

    for w in range(words_per_site):
        addr_src = kb.soa_address(src_base, src_plane, w, src_site)
        addr_dst = kb.soa_address(dst_base, dst_plane, w, dst_site)
        val = kb.ld_global(addr_src, ft)
        kb.st_global(addr_dst, val, ft)

    kb.label(exit_lbl)
    kb.ret()


def face_env(kind: str, words_per_site: int, precision: str,
             nsites: int, face_sites):
    """Launch env for a gather/scatter kernel bound to one face.

    ``face_sites`` is the int32 site list that will be bound to
    ``p_sites`` — its content range bounds the field-side accesses,
    and its bulk stride decides whether they coalesce (faces normal
    to the slowest direction are contiguous site runs; the paper
    splits the lattice in t for exactly this reason).
    """
    from ..ptx.absint import KernelEnv, MemRegion, table_region

    wb = _FT[precision].nbytes
    nface = len(face_sites)
    field = MemRegion("p_dst" if kind == "scatter" else "p_src",
                      words_per_site * nsites * wb)
    buf = MemRegion("p_src" if kind == "scatter" else "p_dst",
                    words_per_site * nface * wb)
    return KernelEnv(
        scalars={"p_lo": nsites, "p_n": nface},
        regions={"p_sites": table_region("p_sites", face_sites),
                 field.param: field, buf.param: buf})


class FaceKernels:
    """Per-context cache of compiled gather/scatter kernels."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._modules: dict[str, ModuleEntry] = {}

    def get(self, kind: str, words_per_site: int, precision: str,
            nsites: int, face_sites) -> ModuleEntry:
        """The kernel for one copy shape, built — and verified, like
        every statement kernel — under the launch env of the face that
        first needs it (:func:`face_env`; the entry keeps that env).
        The ``face:`` key prefix is one no statement signature has."""
        key = f"face:{kind}:{words_per_site}:{precision}"
        entry = self._modules.get(key)
        if entry is None:
            build = (build_gather_kernel if kind == "gather"
                     else build_scatter_kernel)
            entry = self._modules[key] = self.ctx.build_kernel(
                key, lambda: build(words_per_site, precision),
                face_env(kind, words_per_site, precision, nsites,
                         face_sites),
                charge_jit=False)
        return entry
