package cpu

import (
	"fmt"
	"sync/atomic"
	"time"

	"minimaltcb/internal/isa"
	"minimaltcb/internal/mem"
)

// The threaded-code tier removes the interpreter's per-instruction
// dispatch: once a basic block has executed blockHeatMin times, it is
// compiled into a chain of direct-threaded steps — one operand record per
// instruction bound to a shared per-opcode function, with common pairs
// (cmp+branch, pop/pop, pop/push, load+ALU) fused into superinstructions —
// and subsequent executions run the step chain with no fetch, no
// isa.Decode, and no opcode switch.
//
// Everything observable stays bit-identical to the interpreter:
//
//   - Virtual-clock charging is block-granular. The interpreter advances
//     sim.Clock once per instruction, but nothing can observe the clock
//     between two instructions of the same basic block: SVC (the only way
//     into a handler) and HALT terminate a block at compile time, so the
//     clock is only read after the block completes. Run therefore issues a
//     single Advance of executed×InstrCost when the block finishes — or
//     when it stops early on a fault or a mid-block bailout, in which case
//     only the instructions that actually retired (including the faulting
//     one, which the interpreter charges before executing) are charged.
//   - Faults leave PC at the faulting instruction and return the same
//     error values: each closure updates PC only on success, so the
//     invariant "PC == the step's own pc on entry" carries the faulting
//     address exactly as the interpreter's late `c.PC = next` does.
//   - Preemption quanta are honored at the interpreter's granularity: a
//     block only runs when every one of its instructions would have passed
//     the `elapsed >= quantum` check; otherwise execution falls back to
//     the interpreter, which stops at exactly the right instruction.
//   - Profiler callbacks fire per retired instruction in program order
//     with the same (pc, op, cost) arguments. A profiler implementing
//     BlockProfiler can additionally distinguish compiled-tier
//     retirements; plain Profilers can't tell the tiers apart.
//   - Tracers disable the tier entirely (Run checks per iteration), so
//     palasm -trace always observes the interpreter.
//
// Invalidation rides the same page-version protocol as the decoded-
// instruction cache: a compiled block records the version of every page
// its words span (at most two) and is revalidated on lookup. A version
// mismatch does not immediately discard the block — ownership transitions
// bump versions on every suspend/resume cycle without changing bytes — so
// the block's stored words are re-read through the access-checked path and
// compared; only a content or permission change forces recompilation.
// Stores *inside* a running block re-check the covered pages after every
// writing step and bail out to the interpreter if they changed, which is
// what makes self-modifying code exact: the overwritten instruction is
// refetched and reinterpreted before it can execute stale.

const (
	// blockCacheSize is the number of direct-mapped compiled-block slots.
	blockCacheSize = 512
	// blockHeatSize is the number of direct-mapped leader heat counters.
	blockHeatSize = 1024
	// blockHeatMin is how many times a leader must execute before its
	// block is compiled.
	blockHeatMin = 8
	// maxBlockInstrs caps a block's length; with 4-byte words it keeps
	// every block within two pages.
	maxBlockInstrs = 64
	// maxBlockBails poisons a block after this many mid-block bailouts
	// (a PAL whose stack shares a page with its code would otherwise
	// recompile forever).
	maxBlockBails = 4
)

// tstep is one compiled step: a single instruction or a fused pair. It is
// an operand record dispatched through a function shared by every
// compilation of its opcode — the step functions capture nothing, so
// compiling a block costs O(1) allocations (the record slices), not one
// closure per instruction. That matters because experiment sweeps build
// fresh machines by the dozen: a per-instruction closure tax on every
// short-lived machine showed up directly in the benchcmp allocation gate.
// run returns how many instructions retired (charged) and the fault, if
// any.
type tstep struct {
	run  func(c *CPU, e *blockEntry, s *tstep) (int, error)
	n    uint8 // instructions this step retires on success
	wr   bool  // step may write PAL memory (store/storeb/push/call)
	ra   uint8 // register operands
	rb   uint8
	op   isa.Opcode      // retired opcode
	op2  isa.Opcode      // branch opcode of a fused cmp+branch
	a, b int16           // constituent indices into blockEntry.recs for pairs
	pc   uint32          // PAL-relative address of the step's first instruction
	next uint32          // fall-through PC after the whole step
	imm  uint32          // zero-extended immediate; branch/jump target
	simm uint32          // sign-extended immediate
	cond func(*CPU) bool // shared flag predicate for branches
}

func (s *tstep) exec(c *CPU, e *blockEntry) (int, error) { return s.run(c, e, s) }

// blockEntry is one compiled basic block in the direct-mapped cache. The
// fixed-size members (encoded words, step order) live inline so a compile
// allocates exactly one slice — the step records — and a recompile into
// the same slot usually allocates nothing.
type blockEntry struct {
	key     uint32 // leader physical address + 1; 0 = empty
	base    uint32 // region the block was compiled for
	size    int
	startPC uint32 // PAL-relative leader
	n       int    // total instructions
	nsteps  int    // fused steps actually executed
	// recs[0:n] are the per-instruction steps (pair dispatch indexes into
	// them); fused superinstructions are appended after.
	recs    []tstep
	stepIdx [maxBlockInstrs]int16  // indices into recs, execution order
	words   [maxBlockInstrs]uint32 // encoded words, for content revalidation
	pages   [2]int32               // physical pages the words span
	vers    [2]uint32
	npages  int
	bails   uint8
	poison  bool // true: run this leader in the interpreter forever
}

// heatEntry is one leader's execution counter.
type heatEntry struct {
	key  uint32 // leader physical address + 1
	heat uint32
}

// tcodeCounters are the tier's statistics, updated with atomic adds so
// metrics scrapes can read them without the machine lock.
type tcodeCounters struct {
	compiled      int64
	execs         int64
	instrs        int64
	bailouts      int64
	invalidations int64
}

// TCodeStats is a snapshot of the threaded-code tier's counters.
type TCodeStats struct {
	// Compiled counts block compilations (including recompilations).
	Compiled int64
	// Execs counts compiled-block executions; Instrs the instructions
	// retired through them.
	Execs, Instrs int64
	// Bailouts counts early exits to the interpreter: quantum budget too
	// small for the block, or a mid-block store invalidating the block.
	Bailouts int64
	// Invalidations counts compiled blocks discarded because their bytes
	// or access rights changed.
	Invalidations int64
}

// SetBlockCompile enables or disables the threaded-code tier. It is
// enabled by default; differential tests disable it to pin the compiled
// tier against the interpreter. Disabling drops all compiled blocks and
// heat counters.
func (c *CPU) SetBlockCompile(on bool) {
	c.tcodeOff = !on
	if !on {
		c.bcache = nil
		c.bheat = nil
	}
}

// BlockCompileEnabled reports whether the threaded-code tier is active.
func (c *CPU) BlockCompileEnabled() bool { return !c.tcodeOff }

// TCodeStatsSnapshot returns the tier's counters. Safe to call from any
// goroutine.
func (c *CPU) TCodeStatsSnapshot() TCodeStats {
	return TCodeStats{
		Compiled:      atomic.LoadInt64(&c.tstats.compiled),
		Execs:         atomic.LoadInt64(&c.tstats.execs),
		Instrs:        atomic.LoadInt64(&c.tstats.instrs),
		Bailouts:      atomic.LoadInt64(&c.tstats.bailouts),
		Invalidations: atomic.LoadInt64(&c.tstats.invalidations),
	}
}

// retireStep is the compiled tier's per-instruction profiler hook,
// mirroring the interpreter's `c.prof.RetireInstr(c.PC, in.Op, cost)`.
func (c *CPU) retireStep(pc uint32, op isa.Opcode) {
	if c.bprof != nil {
		c.bprof.RetireCompiled(pc, op, c.Params.InstrCost)
	} else if c.prof != nil {
		c.prof.RetireInstr(pc, op, c.Params.InstrCost)
	}
}

// blockFor returns a valid compiled block starting at the current PC, or
// nil when execution should stay in the interpreter (cold leader, poisoned
// block, quantum budget too small, or untranslatable PC — the interpreter
// raises that fault with its own message).
func (c *CPU) blockFor(quantum, elapsed time.Duration) *blockEntry {
	phys, err := c.translate(c.PC, isa.WordSize)
	if err != nil {
		return nil
	}
	if c.bcache == nil {
		// Pointer slots, filled as blocks compile: a machine that runs a
		// handful of hot blocks pays for those entries, not for 512.
		c.bcache = make([]*blockEntry, blockCacheSize)
		c.bheat = make([]heatEntry, blockHeatSize)
	}
	e := c.bcache[(phys>>2)&(blockCacheSize-1)]
	if e != nil && e.key == phys+1 && e.base == c.region.Base && e.size == c.region.Size {
		if e.poison {
			return nil
		}
		if c.blockPagesCurrent(e) || c.revalidateBlock(e) {
			return c.blockFits(e, quantum, elapsed)
		}
		// The block's bytes or permissions changed: recompile in place.
		atomic.AddInt64(&c.tstats.invalidations, 1)
	} else {
		h := &c.bheat[(phys>>2)&(blockHeatSize-1)]
		if h.key != phys+1 {
			h.key = phys + 1
			h.heat = 1
			return nil
		}
		if h.heat++; h.heat < blockHeatMin {
			return nil
		}
	}
	if ne := c.compileBlock(c.PC, phys); ne != nil && !ne.poison {
		return c.blockFits(ne, quantum, elapsed)
	}
	return nil
}

// blockFits checks the preemption budget: the block may only run whole if
// every one of its instructions would have passed the interpreter's
// `elapsed >= quantum` gate. Otherwise the interpreter runs the tail of
// the quantum and stops at exactly the instruction the timer hits.
func (c *CPU) blockFits(e *blockEntry, quantum, elapsed time.Duration) *blockEntry {
	if quantum > 0 && elapsed+time.Duration(e.n-1)*c.Params.InstrCost >= quantum {
		atomic.AddInt64(&c.tstats.bailouts, 1)
		return nil
	}
	return e
}

// blockPagesCurrent reports whether every page the block's words span
// still has the version recorded at compile (or revalidation) time.
func (c *CPU) blockPagesCurrent(e *blockEntry) bool {
	m := c.chip.Memory()
	for i := 0; i < e.npages; i++ {
		if m.PageVersion(int(e.pages[i])) != e.vers[i] {
			return false
		}
	}
	return true
}

// revalidateBlock re-reads the block's words through the access-checked
// path and compares them with the compiled form. Version bumps from
// ownership transitions (every suspend/resume cycle) change no bytes, so
// this turns them into a cheap word compare instead of a recompile. A
// failed read (permissions revoked) or changed word invalidates.
func (c *CPU) revalidateBlock(e *blockEntry) bool {
	phys := e.key - 1
	for i := 0; i < e.n; i++ {
		got, err := c.chip.CPUReadWord(c.ID, phys+uint32(i*isa.WordSize))
		if err != nil || got != e.words[i] {
			return false
		}
	}
	m := c.chip.Memory()
	for i := 0; i < e.npages; i++ {
		e.vers[i] = m.PageVersion(int(e.pages[i]))
	}
	return true
}

// runBlock executes a compiled block. It returns the number of
// instructions retired — the caller advances the virtual clock once for
// all of them — and the fault, if any. A mid-block store that touches the
// block's own pages stops execution after the store (its effects are
// architecturally complete) and lets the interpreter refetch from the next
// instruction.
func (c *CPU) runBlock(e *blockEntry) (int, error) {
	atomic.AddInt64(&c.tstats.execs, 1)
	executed := 0
	var rerr error
	for i := 0; i < e.nsteps; i++ {
		s := &e.recs[e.stepIdx[i]]
		k, err := s.run(c, e, s)
		executed += k
		if err != nil {
			rerr = err
			break
		}
		if s.wr && !c.blockPagesCurrent(e) {
			atomic.AddInt64(&c.tstats.bailouts, 1)
			if e.bails++; e.bails >= maxBlockBails {
				e.poison = true
			}
			break
		}
	}
	atomic.AddInt64(&c.tstats.instrs, int64(executed))
	return executed, rerr
}

// isBlockEnd reports whether op terminates a basic block (control
// transfer; SVC and HALT are excluded from blocks before this is asked).
func isBlockEnd(op isa.Opcode) bool {
	switch op {
	case isa.OpJmp, isa.OpJz, isa.OpJnz, isa.OpJc, isa.OpJnc, isa.OpJn,
		isa.OpJmpr, isa.OpCall, isa.OpRet:
		return true
	}
	return false
}

// branchCond returns the flag predicate of a conditional branch, or nil
// for other opcodes. The returned funcs capture nothing, so they are
// shared across all compilations.
func branchCond(op isa.Opcode) func(*CPU) bool {
	switch op {
	case isa.OpJz:
		return condZ
	case isa.OpJnz:
		return condNZ
	case isa.OpJc:
		return condC
	case isa.OpJnc:
		return condNC
	case isa.OpJn:
		return condN
	}
	return nil
}

func condZ(c *CPU) bool  { return c.FlagZ }
func condNZ(c *CPU) bool { return !c.FlagZ }
func condC(c *CPU) bool  { return c.FlagC }
func condNC(c *CPU) bool { return !c.FlagC }
func condN(c *CPU) bool  { return c.FlagN }

// compileBlock scans the basic block whose leader is at PAL-relative pc
// (physical phys), compiles it into the direct-mapped slot for phys, and
// returns the entry. A leader with nothing compilable (SVC or HALT first,
// or an undecodable word) is negatively cached as poisoned so the hot
// loop stops re-scanning it.
func (c *CPU) compileBlock(pc, phys uint32) *blockEntry {
	// The scan buffers are fixed-size locals: a compile must stay cheap
	// enough that short-lived machines (experiment sweeps build them by
	// the dozen) don't pay an allocation tax per launch.
	var (
		ins [maxBlockInstrs]isa.Instruction
		pcs [maxBlockInstrs]uint32
		n   int
	)
	scanPC := pc
	for n < maxBlockInstrs {
		if int(scanPC)+isa.WordSize > c.region.Size {
			break
		}
		in, err := c.fetchSlow(c.region.Base + scanPC)
		if err != nil {
			break
		}
		if in.Op == isa.OpSvc || in.Op == isa.OpHalt {
			break
		}
		ins[n], pcs[n] = in, scanPC
		n++
		scanPC += isa.WordSize
		if isBlockEnd(in.Op) {
			break
		}
	}

	idx := (phys >> 2) & (blockCacheSize - 1)
	e := c.bcache[idx]
	if e == nil {
		e = new(blockEntry)
		c.bcache[idx] = e
	}
	// Recycle the slot's record slice: an invalidation-driven recompile of
	// a same-sized block allocates nothing.
	recs := e.recs[:0]
	*e = blockEntry{key: phys + 1, base: c.region.Base, size: c.region.Size, startPC: pc}
	if n == 0 {
		e.poison = true
		return e
	}

	e.n = n
	for i := 0; i < n; i++ {
		e.words[i] = ins[i].Encode()
	}
	p0 := int32(phys / mem.PageSize)
	pLast := int32((phys + uint32(n*isa.WordSize) - 1) / mem.PageSize)
	e.pages[0], e.npages = p0, 1
	if pLast != p0 {
		e.pages[1], e.npages = pLast, 2
	}
	m := c.chip.Memory()
	for i := 0; i < e.npages; i++ {
		e.vers[i] = m.PageVersion(int(e.pages[i]))
	}

	// At most n/2 fused records follow the n per-instruction ones, so one
	// allocation covers the worst case.
	if cap(recs) < n+n/2 {
		recs = make([]tstep, n, n+n/2)
	} else {
		recs = recs[:n]
	}
	for i := 0; i < n; i++ {
		recs[i] = stepFor(ins[i], pcs[i])
	}
	ns := 0
	for i := 0; i < n; i++ {
		in, ipc := ins[i], pcs[i]
		if i+1 < n {
			nx := ins[i+1]
			if in.Op == isa.OpCmp && branchCond(nx.Op) != nil {
				recs = append(recs, fuseCmpBranch(in, nx, ipc))
				e.stepIdx[ns] = int16(len(recs) - 1)
				ns++
				i++
				continue
			}
			if fusablePair(in, nx) &&
				// Leave a cmp for the cmp+branch fusion behind it.
				!(nx.Op == isa.OpCmp && i+2 < n && branchCond(ins[i+2].Op) != nil) {
				recs = append(recs, fusePair(recs, i, i+1))
				e.stepIdx[ns] = int16(len(recs) - 1)
				ns++
				i++
				continue
			}
		}
		e.stepIdx[ns] = int16(i)
		ns++
	}
	e.recs = recs
	e.nsteps = ns
	atomic.AddInt64(&c.tstats.compiled, 1)
	return e
}

// fusablePair reports whether (a, b) may run as one superinstruction. A
// writing first half is never fusable: its store could overwrite b's word,
// and the staleness check only runs between steps. b must not be a
// control transfer (cmp+branch has its own fused form).
func fusablePair(a, b isa.Instruction) bool {
	if isBlockEnd(b.Op) || b.Op == isa.OpSvc || b.Op == isa.OpHalt {
		return false
	}
	switch a.Op {
	case isa.OpLoad: // load+op
		return isALU(b.Op)
	case isa.OpPop: // pop/pop, pop/push sequences
		return b.Op == isa.OpPop || b.Op == isa.OpPush
	}
	return false
}

// isALU reports the register-only ops a load may fuse with.
func isALU(op isa.Opcode) bool {
	switch op {
	case isa.OpMov, isa.OpLdi, isa.OpLui, isa.OpAddi, isa.OpAdd, isa.OpSub,
		isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpCmp, isa.OpNop:
		return true
	}
	return false
}

// fusePair chains the constituent steps at record indices i and j into one
// superinstruction, keeping per-constituent retirement exact: a fault in
// the second half reports the first as retired, exactly as the interpreter
// would.
func fusePair(recs []tstep, i, j int) tstep {
	return tstep{run: stepPair, n: recs[i].n + recs[j].n,
		wr: recs[i].wr || recs[j].wr, a: int16(i), b: int16(j)}
}

func stepPair(c *CPU, e *blockEntry, s *tstep) (int, error) {
	k, err := e.recs[s.a].exec(c, e)
	if err != nil {
		return k, err
	}
	k2, err := e.recs[s.b].exec(c, e)
	return k + k2, err
}

// fuseCmpBranch compiles the classic compare-and-branch superinstruction:
// flags are still set architecturally (the interpreter's cmp persists
// them), then the branch picks the target without a second dispatch.
func fuseCmpBranch(cmp, br isa.Instruction, pc uint32) tstep {
	return tstep{run: stepCmpBranch, n: 2, op: isa.OpCmp, op2: br.Op,
		ra: cmp.RA, rb: cmp.RB, pc: pc, next: pc + 2*isa.WordSize,
		imm: uint32(br.Imm), cond: branchCond(br.Op)}
}

func stepCmpBranch(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, isa.OpCmp)
	a, b := c.Regs[s.ra], c.Regs[s.rb]
	c.FlagZ = a == b
	c.FlagC = a < b
	c.FlagN = int32(a) < int32(b)
	c.retireStep(s.pc+isa.WordSize, s.op2)
	if s.cond(c) {
		c.PC = s.imm
	} else {
		c.PC = s.next
	}
	return 2, nil
}

// stepFor compiles one instruction into an operand record. Every step
// function assumes c.PC == s.pc on entry (the previous step's success path
// established it), touches PC only on success, and mirrors the
// interpreter's execute() case for its opcode exactly — including error
// values and the charge-before-execute contract (a faulting instruction
// retires).
func stepFor(in isa.Instruction, pc uint32) tstep {
	s := tstep{n: 1, op: in.Op, ra: in.RA, rb: in.RB,
		pc: pc, next: pc + isa.WordSize,
		imm: uint32(in.Imm), simm: uint32(int32(int16(in.Imm)))}
	switch in.Op {
	case isa.OpNop:
		s.run = stepNop
	case isa.OpMov:
		s.run = stepMov
	case isa.OpLdi:
		s.run = stepLdi
	case isa.OpLui:
		s.run = stepLui
	case isa.OpAddi:
		s.run = stepAddi
	case isa.OpAdd:
		s.run = stepAdd
	case isa.OpSub:
		s.run = stepSub
	case isa.OpMul:
		s.run = stepMul
	case isa.OpDivu:
		s.run = stepDivu
	case isa.OpRemu:
		s.run = stepRemu
	case isa.OpAnd:
		s.run = stepAnd
	case isa.OpOr:
		s.run = stepOr
	case isa.OpXor:
		s.run = stepXor
	case isa.OpShl:
		s.run = stepShl
	case isa.OpShr:
		s.run = stepShr
	case isa.OpLoad:
		s.run = stepLoad
	case isa.OpLoadb:
		s.run = stepLoadb
	case isa.OpStore:
		s.run, s.wr = stepStore, true
	case isa.OpStoreb:
		s.run, s.wr = stepStoreb, true
	case isa.OpCmp:
		s.run = stepCmp
	case isa.OpJmp:
		s.run = stepJmp
	case isa.OpJz, isa.OpJnz, isa.OpJc, isa.OpJnc, isa.OpJn:
		s.run, s.cond = stepBranch, branchCond(in.Op)
	case isa.OpJmpr:
		s.run = stepJmpr
	case isa.OpCall:
		s.run, s.wr = stepCall, true
	case isa.OpRet:
		s.run = stepRet
	case isa.OpPush:
		s.run, s.wr = stepPush, true
	case isa.OpPop:
		s.run = stepPop
	default:
		// isa.Decode validated the opcode, and SVC/HALT never enter
		// blocks; the defensive fallback faults exactly like the
		// interpreter's default.
		s.run = stepBadOp
	}
	return s
}

func stepNop(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.PC = s.next
	return 1, nil
}

func stepMov(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] = c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepLdi(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] = s.imm
	c.PC = s.next
	return 1, nil
}

func stepLui(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] = (c.Regs[s.ra] & 0xffff) | s.imm<<16
	c.PC = s.next
	return 1, nil
}

func stepAddi(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] += s.simm
	c.PC = s.next
	return 1, nil
}

func stepAdd(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] += c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepSub(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] -= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepMul(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] *= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepDivu(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if c.Regs[s.rb] == 0 {
		return 1, fmt.Errorf("%w: divide by zero at pc=%d", ErrFault, s.pc)
	}
	c.Regs[s.ra] /= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepRemu(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if c.Regs[s.rb] == 0 {
		return 1, fmt.Errorf("%w: remainder by zero at pc=%d", ErrFault, s.pc)
	}
	c.Regs[s.ra] %= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepAnd(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] &= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepOr(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] |= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepXor(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] ^= c.Regs[s.rb]
	c.PC = s.next
	return 1, nil
}

func stepShl(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] <<= c.Regs[s.rb] & 31
	c.PC = s.next
	return 1, nil
}

func stepShr(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.Regs[s.ra] >>= c.Regs[s.rb] & 31
	c.PC = s.next
	return 1, nil
}

func stepLoad(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	v, err := c.ReadWord(c.Regs[s.rb] + s.simm)
	if err != nil {
		return 1, err
	}
	c.Regs[s.ra] = v
	c.PC = s.next
	return 1, nil
}

func stepLoadb(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	b, err := c.LoadByte(c.Regs[s.rb] + s.simm)
	if err != nil {
		return 1, err
	}
	c.Regs[s.ra] = uint32(b)
	c.PC = s.next
	return 1, nil
}

func stepStore(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if err := c.WriteWord(c.Regs[s.rb]+s.simm, c.Regs[s.ra]); err != nil {
		return 1, err
	}
	c.PC = s.next
	return 1, nil
}

func stepStoreb(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if err := c.StoreByte(c.Regs[s.rb]+s.simm, byte(c.Regs[s.ra])); err != nil {
		return 1, err
	}
	c.PC = s.next
	return 1, nil
}

func stepCmp(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	a, b := c.Regs[s.ra], c.Regs[s.rb]
	c.FlagZ = a == b
	c.FlagC = a < b
	c.FlagN = int32(a) < int32(b)
	c.PC = s.next
	return 1, nil
}

func stepJmp(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.PC = s.imm
	return 1, nil
}

func stepBranch(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if s.cond(c) {
		c.PC = s.imm
	} else {
		c.PC = s.next
	}
	return 1, nil
}

func stepJmpr(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	c.PC = c.Regs[s.ra]
	return 1, nil
}

func stepCall(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if err := c.push(s.next); err != nil {
		return 1, err
	}
	c.PC = s.imm
	return 1, nil
}

func stepRet(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	v, err := c.pop()
	if err != nil {
		return 1, err
	}
	c.PC = v
	return 1, nil
}

func stepPush(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	if err := c.push(c.Regs[s.ra]); err != nil {
		return 1, err
	}
	c.PC = s.next
	return 1, nil
}

func stepPop(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	v, err := c.pop()
	if err != nil {
		return 1, err
	}
	c.Regs[s.ra] = v
	c.PC = s.next
	return 1, nil
}

func stepBadOp(c *CPU, _ *blockEntry, s *tstep) (int, error) {
	c.retireStep(s.pc, s.op)
	return 1, fmt.Errorf("%w: unimplemented opcode %v at pc=%d", ErrFault, s.op, s.pc)
}
