"""Tests for the VMM: faulting, THP promotion, translation, khugepaged.

These encode the mechanism behind the paper's observations (DESIGN.md §5):
on the 64 KiB-granule Ookami kernel the THP granule is 512 MiB, so
FLASH-sized (~100 MB) anonymous mappings never receive transparent huge
pages while multi-GiB mappings do.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import GiB, KiB, MiB
from repro.util.errors import AllocationError, KernelError
from repro.kernel.page import AARCH64_64K, X86_64_4K
from repro.kernel.params import BootParams, KernelConfig, ookami_config
from repro.kernel.thp import THPMode
from repro.kernel.vmm import Kernel, MapFlags


@pytest.fixture
def kernel():
    # a modified node after `echo always > .../transparent_hugepage/enabled`
    return Kernel(ookami_config(thp_mode=THPMode.ALWAYS))


@pytest.fixture
def space(kernel):
    return kernel.new_address_space()


class TestMmap:
    def test_mmap_rounds_to_base_page(self, space):
        vma = space.mmap(100)
        assert vma.length == 64 * KiB

    def test_mmap_hugetlb_rounds_to_huge_page(self, kernel, space):
        kernel.pool(2 * MiB).set_pool_size(64)
        vma = space.mmap(3 * MiB, hugetlb_size=2 * MiB)
        assert vma.length == 4 * MiB
        assert kernel.pool(2 * MiB).reserved == 2

    def test_mmap_hugetlb_empty_pool_enomem(self, space):
        with pytest.raises(AllocationError):
            space.mmap(2 * MiB, hugetlb_size=2 * MiB)

    def test_mappings_do_not_overlap(self, space):
        vmas = [space.mmap(1 * MiB) for _ in range(10)]
        spans = sorted((v.start, v.end) for v in vmas)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_munmap_releases_memory(self, kernel, space):
        vma = space.mmap(10 * MiB)
        space.touch_range(vma, 0, vma.length)
        used = kernel.anon_base_bytes
        assert used > 0
        space.munmap(vma)
        assert kernel.anon_base_bytes == 0

    def test_munmap_unknown_vma_raises(self, kernel, space):
        other = kernel.new_address_space()
        vma = other.mmap(1 * MiB)
        with pytest.raises(KernelError):
            space.munmap(vma)

    def test_zero_length_rejected(self, space):
        with pytest.raises(KernelError):
            space.mmap(0)


class TestFaulting:
    def test_touch_populates_base_pages(self, space):
        vma = space.mmap(1 * MiB)
        space.touch(vma, np.array([0, 64 * KiB, 2 * 64 * KiB]))
        assert vma.base_bytes == 3 * 64 * KiB

    def test_repeated_touch_idempotent(self, space):
        vma = space.mmap(1 * MiB)
        space.touch_range(vma, 0, vma.length)
        before = vma.base_bytes
        space.touch_range(vma, 0, vma.length)
        assert vma.base_bytes == before

    def test_touch_outside_vma_raises(self, space):
        vma = space.mmap(1 * MiB)
        with pytest.raises(KernelError):
            space.touch(vma, np.array([vma.length]))

    def test_hugetlb_fault_consumes_pool(self, kernel, space):
        kernel.pool(2 * MiB).set_pool_size(16)
        vma = space.mmap(8 * MiB, hugetlb_size=2 * MiB)
        space.touch_range(vma, 0, 4 * MiB)
        pool = kernel.pool(2 * MiB)
        assert pool.allocated == 2
        assert pool.reserved == 2

    def test_out_of_memory(self):
        cfg = KernelConfig(mem_total=3 * GiB, os_reserved=2 * GiB)
        k = Kernel(cfg)
        s = k.new_address_space()
        vma = s.mmap(2 * GiB)  # mapping ok, faulting it isn't
        with pytest.raises(AllocationError):
            s.touch_range(vma, 0, vma.length)


class TestTHPPromotion:
    """The paper's mystery, mechanised."""

    def test_flash_sized_mapping_gets_no_thp(self, space):
        """~100 MB `unk` cannot contain a 512 MiB-aligned PMD extent."""
        vma = space.mmap(100 * MiB, name="unk")
        space.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes == 0
        assert vma.base_bytes == 100 * MiB

    def test_multi_gib_mapping_gets_thp(self, space):
        """The paper's dynamically allocating toy program (big array)."""
        vma = space.mmap(2 * GiB, name="toy")
        space.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes >= 512 * MiB
        assert vma.uses_huge_pages()

    def test_image_segment_never_thp(self, space):
        """The statically allocating toy program: data/BSS is file-backed."""
        vma = space.map_image(2 * GiB, name="static_test")
        space.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes == 0

    def test_x86_geometry_would_have_promoted(self):
        """Contrast: with 4 KiB granule (2 MiB THP) FLASH *would* huge-page —
        localising the mystery to the 64 KiB-granule kernel."""
        cfg = KernelConfig(geometry=X86_64_4K,
                           boot=BootParams(hugepagesz=(2 * MiB,),
                                           default_hugepagesz=2 * MiB))
        k = Kernel(cfg)
        s = k.new_address_space()
        vma = s.mmap(100 * MiB, name="unk")
        s.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes >= 96 * MiB

    def test_page_geometry_ablation_through_the_toolchain(self):
        """The same GNU-compiled FLASH launch with THP always on: no huge
        pages on the 64 KiB-granule node, huge pages via plain THP on an
        x86-64 4 KiB/2 MiB kernel — no Fujitsu runtime needed."""
        from repro.toolchain.compiler import GNU

        results = {}
        for name, config in (
            ("aarch64-64k", ookami_config(thp_mode=THPMode.ALWAYS)),
            ("x86_64-4k", KernelConfig(
                geometry=X86_64_4K,
                boot=BootParams(hugepagesz=(2 * MiB,),
                                default_hugepagesz=2 * MiB),
                thp_mode=THPMode.ALWAYS)),
        ):
            proc = GNU.compile("flash4").launch(Kernel(config))
            proc.allocate(96 * MiB, "unk")
            proc.first_touch("unk")
            results[name] = proc.uses_huge_pages()
        assert results["aarch64-64k"] is False  # the paper's observation
        assert results["x86_64-4k"] is True  # the ablation: mystery gone

    def test_thp_never_blocks_promotion(self):
        k = Kernel(ookami_config(thp_mode=THPMode.NEVER))
        s = k.new_address_space()
        vma = s.mmap(2 * GiB)
        s.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes == 0

    def test_thp_madvise_requires_hint(self):
        k = Kernel(ookami_config(thp_mode=THPMode.MADVISE))
        s = k.new_address_space()
        vma = s.mmap(2 * GiB)
        s.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes == 0
        vma2 = s.mmap(2 * GiB)
        s.madvise(vma2, "MADV_HUGEPAGE")
        s.touch_range(vma2, 0, vma2.length)
        assert vma2.thp_bytes > 0

    def test_echo_never_at_runtime(self, kernel, space):
        """The admins' echo never > .../enabled blocks later promotions."""
        kernel.write_sysfs_thp_enabled("never")
        vma = space.mmap(2 * GiB)
        space.touch_range(vma, 0, vma.length)
        assert vma.thp_bytes == 0

    def test_single_touch_promotes_empty_extent(self, space):
        """A fault anywhere in an empty, contained extent installs a huge
        page immediately — the fault path doesn't wait for more touches."""
        vma = space.mmap(2 * GiB)
        space.touch(vma, np.array([512 * MiB + 64 * KiB], dtype=np.int64))
        assert vma.thp_bytes == 512 * MiB

    def test_partial_population_blocks_later_promotion(self, kernel, space):
        """An extent that already has base pages is no longer pmd_none, so
        re-enabling THP later cannot huge-page it on the fault path."""
        vma = space.mmap(2 * GiB)
        kernel.write_sysfs_thp_enabled("never")
        # dirty one base page inside the second extent while THP is off...
        space.touch(vma, np.array([512 * MiB + 64 * KiB], dtype=np.int64))
        kernel.write_sysfs_thp_enabled("always")
        # ...then sweep everything
        space.touch_range(vma, 0, vma.length)
        ext = 512 * MiB
        n_contained = (vma.length // ext) - (0 if vma.start % ext == 0 else 1)
        assert vma.thp_bytes < n_contained * ext
        assert vma.thp_bytes >= ext  # but others did promote

    def test_fault_counters(self, kernel, space):
        vma = space.mmap(2 * GiB)
        space.touch_range(vma, 0, vma.length)
        assert kernel.thp.thp_fault_alloc == vma.thp_bytes // (512 * MiB)


class TestTranslate:
    def test_translate_base_pages(self, space):
        vma = space.mmap(1 * MiB)
        space.touch_range(vma, 0, vma.length)
        base, size = space.translate(vma, np.array([0, 64 * KiB + 5]))
        assert (size == 64 * KiB).all()
        assert base[0] == vma.start
        assert base[1] == vma.start + 64 * KiB

    def test_translate_mixed_thp(self, space):
        vma = space.mmap(2 * GiB)
        space.touch_range(vma, 0, vma.length)
        offs = np.arange(0, vma.length, 32 * MiB, dtype=np.int64)
        base, size = space.translate(vma, offs)
        assert set(np.unique(size)) <= {64 * KiB, 512 * MiB}
        assert (512 * MiB == size).any()

    def test_translate_hugetlb(self, kernel, space):
        kernel.pool(2 * MiB).set_pool_size(64)
        vma = space.mmap(8 * MiB, hugetlb_size=2 * MiB)
        base, size = space.translate(vma, np.array([0, 3 * MiB]))
        assert (size == 2 * MiB).all()
        assert base[1] == vma.start + 2 * MiB

    @given(off=st.integers(min_value=0, max_value=8 * MiB - 1))
    @settings(max_examples=50)
    def test_translate_contains_address(self, off):
        k = Kernel(ookami_config())
        s = k.new_address_space()
        vma = s.mmap(8 * MiB)
        base, size = s.translate(vma, np.array([off]))
        va = vma.start + off
        assert base[0] <= va < base[0] + size[0]
        assert base[0] % size[0] == 0


class TestKhugepaged:
    def test_collapse_partially_populated_extent(self, kernel, space):
        vma = space.mmap(2 * GiB)
        # dirty every extent with THP off so the fault path can never promote
        ext = 512 * MiB
        kernel.write_sysfs_thp_enabled("never")
        probes = np.arange(64 * KiB, vma.length, ext, dtype=np.int64)
        space.touch(vma, probes)
        space.touch_range(vma, 0, vma.length)
        kernel.write_sysfs_thp_enabled("always")
        assert vma.thp_bytes == 0
        n = space.khugepaged_scan()
        assert n > 0
        assert vma.thp_bytes == n * ext
        assert kernel.thp.thp_collapse_alloc == n

    def test_collapse_respects_budget(self, kernel, space):
        vma = space.mmap(2 * GiB)
        kernel.write_sysfs_thp_enabled("never")
        probes = np.arange(64 * KiB, vma.length, 512 * MiB, dtype=np.int64)
        space.touch(vma, probes)
        space.touch_range(vma, 0, vma.length)
        kernel.write_sysfs_thp_enabled("always")
        assert space.khugepaged_scan(max_extents=1) == 1

    def test_collapse_memory_accounting_consistent(self, kernel, space):
        vma = space.mmap(2 * GiB)
        kernel.write_sysfs_thp_enabled("never")
        probes = np.arange(64 * KiB, vma.length, 512 * MiB, dtype=np.int64)
        space.touch(vma, probes)
        space.touch_range(vma, 0, vma.length)
        kernel.write_sysfs_thp_enabled("always")
        before = vma.resident_bytes
        space.khugepaged_scan()
        # residency may only have grown to whole extents
        assert vma.resident_bytes >= before
        assert kernel.anon_thp_bytes == vma.thp_bytes


class TestProcessLifecycle:
    def test_exit_releases_everything(self, kernel):
        space = kernel.new_address_space()
        kernel.pool(2 * MiB).set_pool_size(16)
        v1 = space.mmap(100 * MiB)
        v2 = space.mmap(8 * MiB, hugetlb_size=2 * MiB)
        space.touch_range(v1, 0, v1.length)
        space.touch_range(v2, 0, v2.length)
        kernel.exit_process(space)
        assert kernel.anon_base_bytes == 0
        assert kernel.anon_thp_bytes == 0
        assert kernel.pool(2 * MiB).allocated == 0
        assert kernel.pool(2 * MiB).reserved == 0


class TestHugetlbDegradation:
    """ENOMEM semantics and the counted base-page fallback (the kernel
    side of the supervisor's graceful-degradation contract)."""

    def test_enomem_message_names_the_mapping(self, space):
        with pytest.raises(AllocationError, match="ENOMEM") as exc_info:
            space.mmap(2 * MiB, hugetlb_size=2 * MiB, name="flash-unk")
        assert "flash-unk" in str(exc_info.value)

    def test_fallback_degrades_to_base_pages(self, kernel, space):
        """An exhausted pool with ``hugetlb_fallback=True`` yields a
        working base-page VMA and one counted degradation."""
        vma = space.mmap(2 * MiB, hugetlb_size=2 * MiB,
                         hugetlb_fallback=True, name="flash-unk")
        assert not vma.flags & MapFlags.HUGETLB
        assert vma.hugetlb_size is None
        assert kernel.degradations.counts == {
            "hugetlb_base_page_fallback": 1}
        assert "flash-unk" in kernel.degradations.details[
            "hugetlb_base_page_fallback"]
        # the fallback VMA faults real base pages
        space.touch_range(vma, 0, vma.length)
        assert kernel.anon_base_bytes == vma.length

    def test_fallback_unused_when_pool_has_pages(self, kernel, space):
        kernel.pool(2 * MiB).set_pool_size(8)
        vma = space.mmap(2 * MiB, hugetlb_size=2 * MiB,
                         hugetlb_fallback=True)
        assert vma.flags & MapFlags.HUGETLB
        assert kernel.pool(2 * MiB).reserved == 1
        assert kernel.degradations.counts == {}

    def test_failed_hugetlb_mmap_leaves_no_vma(self, kernel, space):
        """The refused mapping must not leak address space or pool
        reservations (the reserve-before-create ordering)."""
        with pytest.raises(AllocationError):
            space.mmap(2 * MiB, hugetlb_size=2 * MiB)
        assert space.vmas == []
        assert kernel.pool(2 * MiB).reserved == 0
        follow_up = space.mmap(1 * MiB)
        assert follow_up.length >= 1 * MiB
