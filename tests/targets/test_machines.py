"""Tests for the two machine descriptions."""

import pytest

from repro.rtl import parse_insn
from repro.targets import M68020, Sparc, get_target


@pytest.fixture
def m68k():
    return M68020()


@pytest.fixture
def sparc():
    return Sparc()


class TestLookup:
    def test_get_target(self):
        assert get_target("m68020").name == "m68020"
        assert get_target("sparc").name == "sparc"

    @pytest.mark.parametrize("name", ["vax", "68020", "M68020", "SPARC"])
    def test_one_spelling_per_target(self, name):
        with pytest.raises(ValueError, match="unknown target"):
            get_target(name)


class TestM68020Legality:
    @pytest.mark.parametrize(
        "text",
        [
            "d[0]=d[1];",
            "d[0]=5;",
            "d[0]=L[a[0]];",
            "L[a[0]]=d[0];",
            "L[a[0]]=L[a[1]];",  # mem-to-mem move
            "d[0]=d[0]+L[a[6]+8];",  # ALU with one memory operand
            "L[a[0]]=L[a[0]]+1;",  # add-to-memory
            "d[0]=d[1]+d[2];",
            "a[0]=FP+buf.;",  # lea
            "d[0]=L[a[0]+d[1]*4];",  # scaled index addressing
            "d[0]=L[a[0]+d[1]*4+8];",
            "NZ=L[a[6]+4]?10;",
            "NZ=d[0]?L[_n.];",
            "d[0]=-d[1];",
            "d[0]=~L[a[0]];",
        ],
    )
    def test_legal(self, m68k, text):
        assert m68k.legal(parse_insn(text))

    @pytest.mark.parametrize(
        "text",
        [
            "d[0]=L[a[0]]+L[a[1]];",  # two memory operands in an ALU op
            "L[a[0]]=d[1]+L[a[1]];",  # dst mem + src mem
            "NZ=L[a[0]]?L[a[1]];",  # two memory compares
            "d[0]=L[a[0]+d[1]*4+d[2]];",  # too many index terms
            "d[0]=L[a[0]+d[1]*3];",  # scale must be 1/2/4/8
            "d[0]=d[1]*d[2]+d[3];",  # nested ALU expression
        ],
    )
    def test_illegal(self, m68k, text):
        assert not m68k.legal(parse_insn(text))

    def test_sizes_are_plausible(self, m68k):
        small = m68k.insn_size(parse_insn("d[0]=d[1];"))
        memory = m68k.insn_size(parse_insn("d[0]=L[a[6]+8];"))
        big = m68k.insn_size(parse_insn("d[0]=123456;"))
        assert 2 <= small < memory
        assert small < big
        assert m68k.insn_size(parse_insn("PC=RT;")) == 2

    def test_counts_always_one(self, m68k):
        assert m68k.insn_count(parse_insn("d[0]=123456;")) == 1


class TestSparcLegality:
    @pytest.mark.parametrize(
        "text",
        [
            "r[8]=r[9];",
            "r[8]=100;",
            "r[8]=r[9]+r[10];",
            "r[8]=r[9]+4095;",
            "r[8]=L[r[9]];",
            "r[8]=L[r[9]+r[10]];",
            "r[8]=L[r[9]+64];",
            "r[8]=L[FP+x.];",  # frame-pointer relative
            "L[r[9]]=r[8];",
            "L[r[9]]=0;",  # store of %g0
            "NZ=r[8]?r[9];",
            "NZ=r[8]?-4096;",
            "r[8]=-r[9];",
            "r[8]=x.;",  # address formation (2 insns)
        ],
    )
    def test_legal(self, sparc, text):
        assert sparc.legal(parse_insn(text))

    @pytest.mark.parametrize(
        "text",
        [
            "r[8]=r[9]+4096;",  # immediate out of simm13
            "r[8]=L[r[9]+r[10]+4];",  # three-term address
            "r[8]=L[x.];",  # absolute address needs formation
            "L[r[9]]=5;",  # stores take registers (except 0)
            "L[r[9]]=r[8]+r[10];",  # no ALU in stores
            "r[8]=L[r[9]]+r[10];",  # no memory ALU operands
            "NZ=L[r[9]]?0;",  # compares read registers
            "NZ=1000000?r[9];",
        ],
    )
    def test_illegal(self, sparc, text):
        assert not sparc.legal(parse_insn(text))

    def test_fixed_size_and_pair_counts(self, sparc):
        assert sparc.insn_size(parse_insn("r[8]=r[9];")) == 4
        assert sparc.insn_size(parse_insn("PC=RT;")) == 4
        # sethi/or pairs: big constants and global addresses.
        assert sparc.insn_count(parse_insn("r[8]=1000000;")) == 2
        assert sparc.insn_size(parse_insn("r[8]=1000000;")) == 8
        assert sparc.insn_count(parse_insn("r[8]=x.;")) == 2
        assert sparc.insn_count(parse_insn("r[8]=100;")) == 1

    def test_delay_slot_flag(self, sparc, m68k):
        assert sparc.has_delay_slots
        assert not m68k.has_delay_slots

    def test_pools_disjoint_from_scratch(self, sparc, m68k):
        assert not (set(sparc.pool) & set(sparc.scratch))
        assert not (set(m68k.pool) & set(m68k.scratch))
