// Package isa defines the synthetic instruction set that stands in for
// x86 in this reproduction.
//
// The paper's library profiler and call-site analyzer operate on program
// and library binaries: they walk symbol tables, disassemble machine
// code, build partial control-flow graphs, and run dataflow analyses
// over registers and stack slots. To keep those analyses genuine while
// staying hardware-independent, target applications and libraries are
// compiled (by package asm) into this small RISC-like ISA, and the
// analyses in packages cfg, dataflow, profile, and callsite consume its
// binaries exactly as LFI consumes x86: bytes in, instructions out.
//
// Conventions:
//   - 16 general registers R0..R15; R0 carries function return values
//     (the EAX analogue) and the first few arguments live in R1..R3.
//   - A flags register is set by CMP/CMPI/TEST and consumed by
//     conditional branches.
//   - errno lives in thread-local storage reached by SETERRI/GETERR,
//     modelling stores/loads through __errno_location.
//   - Instructions encode to 8 bytes: opcode, rd, rs, rt, imm(int32).
//     Branch and call targets are absolute code offsets in imm.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Op is an opcode.
type Op byte

// Opcodes.
const (
	NOP     Op = iota
	MOVI       // rd <- imm
	MOV        // rd <- rs
	ADDI       // rd <- rs + imm
	LD         // rd <- stack[imm]
	ST         // stack[imm] <- rs
	CMPI       // flags <- compare(rs, imm)
	CMP        // flags <- compare(rs, rt)
	TEST       // flags <- compare(rs, 0)
	JE         // jump to imm if equal
	JNE        // jump if not equal
	JL         // jump if less
	JLE        // jump if less-or-equal
	JG         // jump if greater
	JGE        // jump if greater-or-equal
	JMP        // unconditional jump to imm
	IJMP       // indirect jump through rs (analyzer bails out)
	CALL       // call imported library function; imm = import index
	CALLN      // call internal function at code offset imm
	ICALL      // indirect call through rs
	RET        // return; R0 holds the return value
	SETERRI    // errno <- imm (library-side error reporting)
	GETERR     // rd <- errno (caller-side errno inspection)
)

var opNames = [...]string{
	NOP: "nop", MOVI: "movi", MOV: "mov", ADDI: "addi", LD: "ld", ST: "st",
	CMPI: "cmpi", CMP: "cmp", TEST: "test",
	JE: "je", JNE: "jne", JL: "jl", JLE: "jle", JG: "jg", JGE: "jge",
	JMP: "jmp", IJMP: "ijmp", CALL: "call", CALLN: "calln", ICALL: "icall",
	RET: "ret", SETERRI: "seterri", GETERR: "geterr",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < len(opNames) && opNames[o] != "" }

// InstSize is the fixed encoding size in bytes.
const InstSize = 8

// Inst is one decoded instruction.
type Inst struct {
	Op     Op
	Rd     byte
	Rs     byte
	Rt     byte
	Imm    int32
	Offset uint64 // code offset this instruction was decoded from
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool { return i.Op >= JE && i.Op <= JGE }

// IsBranch reports whether the instruction transfers control (branches,
// jumps, returns), ending a basic block.
func (i Inst) IsBranch() bool {
	return i.IsCondBranch() || i.Op == JMP || i.Op == IJMP || i.Op == RET
}

// EqBranch reports whether a conditional branch encodes an equality
// check (JE/JNE), as opposed to an inequality/range check.
func (i Inst) EqBranch() bool { return i.Op == JE || i.Op == JNE }

// Encode appends the 8-byte encoding of i to dst.
func (i Inst) Encode(dst []byte) []byte {
	var b [InstSize]byte
	b[0] = byte(i.Op)
	b[1] = i.Rd
	b[2] = i.Rs
	b[3] = i.Rt
	binary.LittleEndian.PutUint32(b[4:], uint32(i.Imm))
	return append(dst, b[:]...)
}

// Decode decodes the instruction at offset off in code.
func Decode(code []byte, off uint64) (Inst, error) {
	if off+InstSize > uint64(len(code)) {
		return Inst{}, fmt.Errorf("isa: decode past end at %#x", off)
	}
	if off%InstSize != 0 {
		return Inst{}, fmt.Errorf("isa: misaligned decode at %#x", off)
	}
	op := Op(code[off])
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d at %#x", code[off], off)
	}
	return Inst{
		Op:     op,
		Rd:     code[off+1],
		Rs:     code[off+2],
		Rt:     code[off+3],
		Imm:    int32(binary.LittleEndian.Uint32(code[off+4 : off+8])),
		Offset: off,
	}, nil
}

// String renders the instruction in disassembly form.
func (i Inst) String() string {
	switch i.Op {
	case NOP, RET:
		return i.Op.String()
	case MOVI:
		return fmt.Sprintf("movi r%d, %d", i.Rd, i.Imm)
	case MOV:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rs)
	case ADDI:
		return fmt.Sprintf("addi r%d, r%d, %d", i.Rd, i.Rs, i.Imm)
	case LD:
		return fmt.Sprintf("ld r%d, [sp+%d]", i.Rd, i.Imm)
	case ST:
		return fmt.Sprintf("st [sp+%d], r%d", i.Imm, i.Rs)
	case CMPI:
		return fmt.Sprintf("cmpi r%d, %d", i.Rs, i.Imm)
	case CMP:
		return fmt.Sprintf("cmp r%d, r%d", i.Rs, i.Rt)
	case TEST:
		return fmt.Sprintf("test r%d", i.Rs)
	case JE, JNE, JL, JLE, JG, JGE, JMP, CALLN:
		return fmt.Sprintf("%s %#x", i.Op, uint32(i.Imm))
	case IJMP, ICALL:
		return fmt.Sprintf("%s r%d", i.Op, i.Rs)
	case CALL:
		return fmt.Sprintf("call @%d", i.Imm)
	case SETERRI:
		return fmt.Sprintf("seterri %d", i.Imm)
	case GETERR:
		return fmt.Sprintf("geterr r%d", i.Rd)
	default:
		return i.Op.String()
	}
}

// Symbol is one entry of a binary's symbol table: a defined function.
type Symbol struct {
	Name string
	Off  uint64
	Size uint64
}

// Binary is a compiled module: code image, symbol table, and import
// table. CALL instructions index the import table; call sites of library
// function F are found by scanning for CALL with F's import index.
type Binary struct {
	Name    string
	Code    []byte
	Symbols []Symbol
	Imports []string
}

// FindSymbol returns the symbol with the given name.
func (b *Binary) FindSymbol(name string) (Symbol, bool) {
	for _, s := range b.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// ImportIndex returns the import-table index of a library function name,
// or -1 when the binary does not import it.
func (b *Binary) ImportIndex(name string) int {
	for i, imp := range b.Imports {
		if imp == name {
			return i
		}
	}
	return -1
}

// ImportName returns the imported name for a CALL's import index.
func (b *Binary) ImportName(idx int32) string {
	if idx < 0 || int(idx) >= len(b.Imports) {
		return ""
	}
	return b.Imports[idx]
}

// DecodeAt decodes the instruction at off.
func (b *Binary) DecodeAt(off uint64) (Inst, error) { return Decode(b.Code, off) }

// DecodeRange decodes instructions in [start, end), stopping at decode
// errors (a linear sweep, like a disassembler crossing data).
func (b *Binary) DecodeRange(start, end uint64) []Inst {
	if end > uint64(len(b.Code)) {
		end = uint64(len(b.Code))
	}
	var out []Inst
	for off := start; off+InstSize <= end; off += InstSize {
		in, err := Decode(b.Code, off)
		if err != nil {
			break
		}
		out = append(out, in)
	}
	return out
}

// CallSites returns the code offsets of every CALL to the named imported
// function — the paper's callSites_F set.
func (b *Binary) CallSites(fn string) []uint64 {
	idx := b.ImportIndex(fn)
	if idx < 0 {
		return nil
	}
	var sites []uint64
	for off := uint64(0); off+InstSize <= uint64(len(b.Code)); off += InstSize {
		in, err := Decode(b.Code, off)
		if err != nil {
			continue
		}
		if in.Op == CALL && in.Imm == int32(idx) {
			sites = append(sites, off)
		}
	}
	return sites
}

// Disassemble renders the whole binary as text, one instruction per
// line, with symbol headers — the `lfi analyze -dis` output.
func (b *Binary) Disassemble() string {
	symAt := make(map[uint64]string, len(b.Symbols))
	for _, s := range b.Symbols {
		symAt[s.Off] = s.Name
	}
	out := ""
	for off := uint64(0); off+InstSize <= uint64(len(b.Code)); off += InstSize {
		if name, ok := symAt[off]; ok {
			out += fmt.Sprintf("\n<%s>:\n", name)
		}
		in, err := Decode(b.Code, off)
		if err != nil {
			out += fmt.Sprintf("%6x: ??\n", off)
			continue
		}
		if in.Op == CALL {
			out += fmt.Sprintf("%6x: call %s\n", off, b.ImportName(in.Imm))
			continue
		}
		out += fmt.Sprintf("%6x: %s\n", off, in)
	}
	return out
}
