package psl

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pacesweep/internal/clc"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/mp"
)

// EvalOptions configure model evaluation.
type EvalOptions struct {
	// HardwareName selects a hardware object from the library; empty uses
	// the application's `option { hrduse = "..." }`.
	HardwareName string
	// HW, when non-nil, supplies the hardware model directly (e.g. one
	// fitted by internal/bench), bypassing HMCL objects.
	HW *hwmodel.Model
	// Overrides replace application variable defaults (the paper's
	// "externally (by user at evaluation time) modifiable variables").
	Overrides map[string]float64
}

// Result is a model evaluation outcome.
type Result struct {
	Seconds  float64
	Subtasks map[string]float64 // accumulated seconds per subtask
	Hardware string
}

// value is a PSL runtime value.
type value struct {
	kind rune // 'n' numeric, 's' string, 'f' cflow closure
	num  float64
	str  string
	flow *flowClosure
}

func numVal(x float64) value { return value{kind: 'n', num: x} }
func strVal(s string) value  { return value{kind: 's', str: s} }
func flowVal(f *flowClosure) value {
	return value{kind: 'f', flow: f}
}

// flowClosure pairs a cflow body with the scope it was defined in; extra
// variables (the caller's block-shape locals such as na, nk) are bound
// dynamically at evaluation, CHIP3S style.
type flowClosure struct {
	node *cfNode
	env  *scope
	name string
}

// scope is a lexical environment.
type scope struct {
	vars   map[string]value
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{vars: map[string]value{}, parent: parent}
}

func (s *scope) lookup(name string) (value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return value{}, false
}

// set assigns to the existing binding in the scope chain (so assignments
// inside if/for bodies update the declared variable), creating a binding in
// the local scope only when the name is nowhere bound. Parallel-template
// ranks run on fully private flattened scopes (see runPartmp), so chain
// writes never touch state shared between virtual processors.
func (s *scope) set(name string, v value) {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			cur.vars[name] = v
			return
		}
	}
	s.vars[name] = v
}

// evaluator carries the evaluation context.
type evaluator struct {
	lib     *Library
	hw      *hwmodel.Model
	hwName  string
	costFn  func(clc.Vector) float64
	memo    map[string]float64
	subtask map[string]float64
}

// Evaluate runs an application model and returns its predicted time.
func (lib *Library) Evaluate(appName string, opt EvalOptions) (*Result, error) {
	app, ok := lib.Applications[appName]
	if !ok {
		return nil, fmt.Errorf("psl: no application %q", appName)
	}
	ev := &evaluator{lib: lib, memo: map[string]float64{}, subtask: map[string]float64{}}
	if err := ev.bindHardware(app, opt); err != nil {
		return nil, err
	}

	sc := newScope(nil)
	for _, d := range app.Vars {
		v, err := ev.initValue(d, sc)
		if err != nil {
			return nil, err
		}
		sc.vars[d.name] = v
	}
	for name, x := range opt.Overrides {
		sc.vars[name] = numVal(x)
	}

	initProc, ok := app.Execs["init"]
	if !ok {
		return nil, fmt.Errorf("psl: application %q has no proc exec init", appName)
	}
	var clock float64
	if err := ev.execStmts(initProc.body, sc, app, &clock, nil); err != nil {
		return nil, err
	}
	return &Result{Seconds: clock, Subtasks: ev.subtask, Hardware: ev.hwName}, nil
}

// bindHardware resolves the hardware layer: a direct model, or an HMCL
// object by option/name.
func (ev *evaluator) bindHardware(app *Object, opt EvalOptions) error {
	if opt.HW != nil {
		ev.hw = opt.HW
		ev.hwName = opt.HW.Name
		ev.costFn = opt.HW.CostOf
		return nil
	}
	name := opt.HardwareName
	if name == "" {
		name = app.Options["hrduse"]
	}
	if name == "" {
		return fmt.Errorf("psl: no hardware selected (set option hrduse or EvalOptions)")
	}
	hw, ok := ev.lib.Hardwares[name]
	if !ok {
		return fmt.Errorf("psl: no hardware object %q", name)
	}
	model, table, err := hw.ToModel()
	if err != nil {
		return err
	}
	ev.hw = model
	ev.hwName = name
	ev.costFn = func(v clc.Vector) float64 { return v.Cost(table) }
	return nil
}

// ToModel converts an HMCL hardware object into a fitted-model equivalent:
// the opcode table (microseconds -> seconds) and the three Eq. 3 curves.
// The returned cost table preserves HMCL per-opcode semantics, which with
// the paper's Figure 7 style (all FP opcodes at the achieved-rate cost,
// LFOR/IFBR zero) equals the coarse achieved-rate approach.
func (hw *Hardware) ToModel() (*hwmodel.Model, clc.CostTable, error) {
	mfdg := hw.CLC["MFDG"]
	if mfdg <= 0 {
		return nil, nil, fmt.Errorf("psl: hardware %q missing MFDG cost", hw.Name)
	}
	table := clc.CostTable{}
	for op, micros := range hw.CLC {
		table[clc.Op(op)] = micros * 1e-6
	}
	required := []string{"send", "recv", "pingpong"}
	for _, r := range required {
		if _, ok := hw.MPI[r]; !ok {
			return nil, nil, fmt.Errorf("psl: hardware %q missing mpi curve %q", hw.Name, r)
		}
	}
	m := &hwmodel.Model{
		Name:        hw.Name,
		MFLOPS:      1 / mfdg, // microseconds per flop -> MFLOPS
		OpcodeCosts: table,
		Send:        hw.MPI["send"],
		Recv:        hw.MPI["recv"],
		PingPong:    hw.MPI["pingpong"],
	}
	return m, table, nil
}

func (ev *evaluator) initValue(d varDecl, sc *scope) (value, error) {
	if d.init == nil {
		return numVal(0), nil
	}
	return ev.eval(d.init, sc, nil)
}

// execStmts interprets exec statements. app is non-nil when `call` is
// allowed (application context); rk is non-nil in partmp SPMD context.
func (ev *evaluator) execStmts(body []stmt, sc *scope, app *Object, clock *float64, rk *rankCtx) error {
	for _, s := range body {
		switch n := s.(type) {
		case *declStmt:
			for _, d := range n.decls {
				v, err := ev.initValue(d, sc)
				if err != nil {
					return err
				}
				sc.vars[d.name] = v
			}
		case *assignStmt:
			v, err := ev.eval(n.value, sc, rk)
			if err != nil {
				return err
			}
			sc.set(n.name, v)
		case *forStmt:
			if err := ev.execFor(n, sc, app, clock, rk); err != nil {
				return err
			}
		case *ifStmt:
			cond, err := ev.evalNum(n.cond, sc, rk)
			if err != nil {
				return err
			}
			branch := n.then
			if cond == 0 {
				branch = n.els
			}
			if err := ev.execStmts(branch, newScope(sc), app, clock, rk); err != nil {
				return err
			}
		case *callStmt:
			if app == nil {
				return fmt.Errorf("psl: call %q outside an application context", n.name)
			}
			t, err := ev.callSubtask(app, n.name, sc)
			if err != nil {
				return err
			}
			*clock += t
		case *opStmt:
			if rk == nil {
				return fmt.Errorf("psl: line %d: %s outside a parallel template", n.line, n.op)
			}
			if err := ev.execOp(n, sc, rk); err != nil {
				return err
			}
		default:
			return fmt.Errorf("psl: unhandled statement %T", s)
		}
	}
	return nil
}

const maxLoopIters = 100_000_000

func (ev *evaluator) execFor(n *forStmt, sc *scope, app *Object, clock *float64, rk *rankCtx) error {
	inner := newScope(sc)
	if n.init != nil {
		v, err := ev.eval(n.init.value, inner, rk)
		if err != nil {
			return err
		}
		inner.set(n.init.name, v)
	}
	for iter := 0; ; iter++ {
		if iter >= maxLoopIters {
			return fmt.Errorf("psl: for loop exceeded %d iterations", maxLoopIters)
		}
		if n.cond != nil {
			c, err := ev.evalNum(n.cond, inner, rk)
			if err != nil {
				return err
			}
			if c == 0 {
				break
			}
		}
		if err := ev.execStmts(n.body, newScope(inner), app, clock, rk); err != nil {
			return err
		}
		if n.post != nil {
			v, err := ev.eval(n.post.value, inner, rk)
			if err != nil {
				return err
			}
			inner.set(n.post.name, v)
		}
	}
	return nil
}

// callSubtask evaluates one subtask call from an application: the linked
// variable environment is built in the caller's current scope (run-time
// values flow into the model, Section 4.1), the subtask's parallel template
// is located from its includes, and the template is evaluated SPMD on the
// mp engine. Identical environments are memoised.
func (ev *evaluator) callSubtask(app *Object, name string, appScope *scope) (float64, error) {
	st, ok := ev.lib.Subtasks[name]
	if !ok {
		return 0, fmt.Errorf("psl: application %q calls unknown subtask %q", app.Name, name)
	}
	// Build the subtask environment: defaults, then application links.
	stScope := newScope(nil)
	for _, d := range st.Vars {
		v, err := ev.initValue(d, stScope)
		if err != nil {
			return 0, err
		}
		stScope.vars[d.name] = v
	}
	for _, l := range app.Links[name] {
		v, err := ev.eval(l.value, appScope, nil)
		if err != nil {
			return 0, fmt.Errorf("psl: link %s.%s: %w", name, l.name, err)
		}
		stScope.vars[l.name] = v
	}

	key := memoKey(name, stScope)
	if t, ok := ev.memo[key]; ok {
		ev.subtask[name] += t
		return t, nil
	}

	// Locate the subtask's parallel template.
	var tmpl *Object
	for _, inc := range st.Includes {
		if pt, ok := ev.lib.Partmps[inc]; ok {
			tmpl = pt
			break
		}
	}
	if tmpl == nil {
		return 0, fmt.Errorf("psl: subtask %q includes no parallel template", name)
	}

	// Template environment: defaults, then subtask links; bare identifiers
	// naming the subtask's cflow procs bind as closures.
	ptScope := newScope(nil)
	for _, d := range tmpl.Vars {
		v, err := ev.initValue(d, ptScope)
		if err != nil {
			return 0, err
		}
		ptScope.vars[d.name] = v
	}
	for _, l := range st.Links[tmpl.Name] {
		if ref, ok := l.value.(varExpr); ok {
			if cf, isCflow := st.Cflows[string(ref)]; isCflow {
				ptScope.vars[l.name] = flowVal(&flowClosure{node: cf, env: stScope, name: string(ref)})
				continue
			}
		}
		v, err := ev.eval(l.value, stScope, nil)
		if err != nil {
			return 0, fmt.Errorf("psl: link %s.%s: %w", tmpl.Name, l.name, err)
		}
		ptScope.vars[l.name] = v
	}

	t, err := ev.runPartmp(tmpl, ptScope)
	if err != nil {
		return 0, fmt.Errorf("psl: subtask %q template %q: %w", name, tmpl.Name, err)
	}
	ev.memo[key] = t
	ev.subtask[name] += t
	return t, nil
}

// memoKey fingerprints a subtask environment.
func memoKey(name string, sc *scope) string {
	keys := make([]string, 0, len(sc.vars))
	for k := range sc.vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range keys {
		v := sc.vars[k]
		switch v.kind {
		case 'n':
			fmt.Fprintf(&sb, "|%s=%g", k, v.num)
		case 's':
			fmt.Fprintf(&sb, "|%s=%q", k, v.str)
		case 'f':
			fmt.Fprintf(&sb, "|%s=flow:%s", k, v.flow.name)
		}
	}
	return sb.String()
}

// rankCtx is the per-virtual-processor context of a partmp evaluation.
type rankCtx struct {
	comm   *mp.Comm
	px, py int
}

// runPartmp evaluates a parallel template SPMD: one mp rank per virtual
// processor, the fitted communication curves pricing messages, and cflow
// closures pricing computation. This is the PACE evaluation engine.
func (ev *evaluator) runPartmp(tmpl *Object, env *scope) (float64, error) {
	initProc, ok := tmpl.Execs["init"]
	if !ok {
		return 0, fmt.Errorf("psl: partmp %q has no proc exec init", tmpl.Name)
	}
	px, py := 1, 1
	if v, ok := env.lookup("npe_i"); ok && v.kind == 'n' && v.num >= 1 {
		px = int(v.num)
	}
	if v, ok := env.lookup("npe_j"); ok && v.kind == 'n' && v.num >= 1 {
		py = int(v.num)
	}
	w, err := mp.NewWorld(px*py, mp.Options{Net: ev.hw.Net()})
	if err != nil {
		return 0, err
	}
	errs := make([]error, px*py)
	err = w.Run(func(c *mp.Comm) error {
		rk := &rankCtx{comm: c, px: px, py: py}
		// Each virtual processor gets a private flattened copy of the
		// template environment so assignments cannot race across ranks.
		sc := newScope(nil)
		for cur := env; cur != nil; cur = cur.parent {
			for k, v := range cur.vars {
				if _, ok := sc.vars[k]; !ok {
					sc.vars[k] = v
				}
			}
		}
		var dummy float64
		errs[c.Rank()] = ev.execStmts(initProc.body, sc, nil, &dummy, rk)
		return errs[c.Rank()]
	})
	if err != nil {
		return 0, err
	}
	return w.Makespan(), nil
}

// execOp interprets a device-usage statement on a virtual processor.
func (ev *evaluator) execOp(n *opStmt, sc *scope, rk *rankCtx) error {
	switch n.op {
	case "cpu":
		if len(n.args) != 1 {
			return fmt.Errorf("psl: line %d: cpu() takes one argument", n.line)
		}
		v, err := ev.eval(n.args[0], sc, rk)
		if err != nil {
			return err
		}
		switch v.kind {
		case 'f':
			// Dynamic binding: the caller's locals (na, nk, ...) overlay
			// the closure's defining scope.
			vec, err := ev.evalCflow(v.flow.node, overlay(sc, v.flow.env), rk)
			if err != nil {
				return err
			}
			rk.comm.ChargeExact(ev.costFn(vec))
		case 'n':
			rk.comm.ChargeExact(v.num)
		default:
			return fmt.Errorf("psl: line %d: cpu() needs a cflow or seconds", n.line)
		}
	case "mpisend", "mpirecv":
		if len(n.args) < 2 {
			return fmt.Errorf("psl: line %d: %s(peer, bytes) needs two arguments", n.line, n.op)
		}
		peerF, err := ev.evalNum(n.args[0], sc, rk)
		if err != nil {
			return err
		}
		bytesF, err := ev.evalNum(n.args[1], sc, rk)
		if err != nil {
			return err
		}
		tag := 0
		if len(n.args) > 2 {
			tf, err := ev.evalNum(n.args[2], sc, rk)
			if err != nil {
				return err
			}
			tag = int(tf)
		}
		peer := int(peerF)
		if peer < 0 || peer >= rk.comm.Size() {
			return fmt.Errorf("psl: line %d: %s peer %d out of range", n.line, n.op, peer)
		}
		if n.op == "mpisend" {
			rk.comm.SendN(peer, tag, int(bytesF), nil)
		} else {
			rk.comm.RecvN(peer, tag)
		}
	case "mpiallreduce":
		rk.comm.AllreduceMax(0)
	default:
		return fmt.Errorf("psl: line %d: unknown operation %q", n.line, n.op)
	}
	return nil
}

// overlay builds a scope chain with first taking precedence over second.
func overlay(first, second *scope) *scope {
	// Walk to the root of first's chain and attach second. To avoid
	// mutating shared scopes, build a flattened copy of first.
	out := newScope(second)
	var chain []*scope
	for cur := first; cur != nil; cur = cur.parent {
		chain = append(chain, cur)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for k, v := range chain[i].vars {
			out.vars[k] = v
		}
	}
	return out
}

// evalCflow expands a cflow body into expected operation counts.
func (ev *evaluator) evalCflow(n *cfNode, sc *scope, rk *rankCtx) (clc.Vector, error) {
	switch n.kind {
	case "seq":
		out := clc.Vector{}
		for _, c := range n.body {
			v, err := ev.evalCflow(c, sc, rk)
			if err != nil {
				return nil, err
			}
			out = out.Add(v)
		}
		return out, nil
	case "compute":
		out := clc.Vector{}
		for _, op := range n.ops {
			cnt, err := ev.evalNum(op.count, sc, rk)
			if err != nil {
				return nil, err
			}
			out[clc.Op(op.opcode)] += cnt
		}
		return out, nil
	case "loop":
		cnt, err := ev.evalNum(n.count, sc, rk)
		if err != nil {
			return nil, err
		}
		if cnt < 0 {
			return nil, fmt.Errorf("psl: negative loop count %g", cnt)
		}
		body := clc.Vector{}
		for _, c := range n.body {
			v, err := ev.evalCflow(c, sc, rk)
			if err != nil {
				return nil, err
			}
			body = body.Add(v)
		}
		out := body.Scale(cnt)
		out[clc.LFOR] += cnt + 1
		return out, nil
	case "case":
		prob, err := ev.evalNum(n.prob, sc, rk)
		if err != nil {
			return nil, err
		}
		body := clc.Vector{}
		for _, c := range n.body {
			v, err := ev.evalCflow(c, sc, rk)
			if err != nil {
				return nil, err
			}
			body = body.Add(v)
		}
		out := body.Scale(prob)
		for _, c := range n.elsBody {
			v, err := ev.evalCflow(c, sc, rk)
			if err != nil {
				return nil, err
			}
			out = out.Add(v.Scale(1 - prob))
		}
		out[clc.IFBR]++
		return out, nil
	}
	return nil, fmt.Errorf("psl: unknown cflow node %q", n.kind)
}

// --- expression evaluation ---

func (ev *evaluator) evalNum(e expr, sc *scope, rk *rankCtx) (float64, error) {
	v, err := ev.eval(e, sc, rk)
	if err != nil {
		return 0, err
	}
	if v.kind != 'n' {
		return 0, fmt.Errorf("psl: expected numeric value")
	}
	return v.num, nil
}

func (ev *evaluator) eval(e expr, sc *scope, rk *rankCtx) (value, error) {
	switch n := e.(type) {
	case numExpr:
		return numVal(float64(n)), nil
	case strExpr:
		return strVal(string(n)), nil
	case varExpr:
		if v, ok := sc.lookup(string(n)); ok {
			return v, nil
		}
		return value{}, fmt.Errorf("psl: undefined variable %q", string(n))
	case *unaryExpr:
		x, err := ev.evalNum(n.x, sc, rk)
		if err != nil {
			return value{}, err
		}
		switch n.op {
		case "-":
			return numVal(-x), nil
		case "!":
			if x == 0 {
				return numVal(1), nil
			}
			return numVal(0), nil
		}
		return value{}, fmt.Errorf("psl: unknown unary %q", n.op)
	case *binExpr:
		l, err := ev.evalNum(n.l, sc, rk)
		if err != nil {
			return value{}, err
		}
		r, err := ev.evalNum(n.r, sc, rk)
		if err != nil {
			return value{}, err
		}
		x, err := applyBin(n.op, l, r)
		if err != nil {
			return value{}, err
		}
		return numVal(x), nil
	case *callExpr:
		return ev.evalCall(n, sc, rk)
	}
	return value{}, fmt.Errorf("psl: unhandled expression %T", e)
}

func applyBin(op string, l, r float64) (float64, error) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("psl: division by zero")
		}
		return l / r, nil
	case "%":
		if r == 0 {
			return 0, fmt.Errorf("psl: modulo by zero")
		}
		return math.Mod(l, r), nil
	case "==":
		return b2f(l == r), nil
	case "!=":
		return b2f(l != r), nil
	case "<":
		return b2f(l < r), nil
	case ">":
		return b2f(l > r), nil
	case "<=":
		return b2f(l <= r), nil
	case ">=":
		return b2f(l >= r), nil
	case "&&":
		return b2f(l != 0 && r != 0), nil
	case "||":
		return b2f(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("psl: unknown operator %q", op)
}

// evalCall dispatches builtin functions.
func (ev *evaluator) evalCall(n *callExpr, sc *scope, rk *rankCtx) (value, error) {
	args := make([]float64, len(n.args))
	for i, a := range n.args {
		x, err := ev.evalNum(a, sc, rk)
		if err != nil {
			return value{}, err
		}
		args[i] = x
	}
	need := func(k int) error {
		if len(args) != k {
			return fmt.Errorf("psl: line %d: %s() takes %d argument(s)", n.line, n.name, k)
		}
		return nil
	}
	switch n.name {
	case "abs":
		if err := need(1); err != nil {
			return value{}, err
		}
		return numVal(math.Abs(args[0])), nil
	case "ceil":
		if err := need(1); err != nil {
			return value{}, err
		}
		return numVal(math.Ceil(args[0])), nil
	case "floor":
		if err := need(1); err != nil {
			return value{}, err
		}
		return numVal(math.Floor(args[0])), nil
	case "min":
		if err := need(2); err != nil {
			return value{}, err
		}
		return numVal(math.Min(args[0], args[1])), nil
	case "max":
		if err := need(2); err != nil {
			return value{}, err
		}
		return numVal(math.Max(args[0], args[1])), nil
	case "myx":
		if rk == nil {
			return value{}, fmt.Errorf("psl: line %d: myx() outside a parallel template", n.line)
		}
		return numVal(float64(rk.comm.Rank() % rk.px)), nil
	case "myy":
		if rk == nil {
			return value{}, fmt.Errorf("psl: line %d: myy() outside a parallel template", n.line)
		}
		return numVal(float64(rk.comm.Rank() / rk.px)), nil
	case "procid":
		if rk == nil {
			return value{}, fmt.Errorf("psl: line %d: procid() outside a parallel template", n.line)
		}
		if err := need(2); err != nil {
			return value{}, err
		}
		return numVal(float64(int(args[1])*rk.px + int(args[0]))), nil
	}
	return value{}, fmt.Errorf("psl: line %d: unknown function %q", n.line, n.name)
}
