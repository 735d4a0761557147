package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// Program is a compiled NDlog program shared (immutably) by every node.
type Program struct {
	Rules      []*CompiledRule
	byBodyPred map[string][]occurrence
	preds      map[string]*PredInfo
	predList   []*PredInfo // preds sorted by name (Preds)
	// tables holds the stored (non-event) predicates by table number, so an
	// entry's table tag resolves its predicate.
	tables []*PredInfo

	// Hot-path sizing, computed once at compile time so nodes can allocate
	// scratch arenas before evaluation starts.
	numJoins   int // total stepJoin steps across all plans; joinIDs are [0,numJoins)
	numIndexes int // declared indexes (declareIndex); index numbers are [0,numIndexes)
	maxVars    int // widest rule environment
	maxGroup   int // widest aggregate group-by list
	groupBound int // aggregate groups a node can hold if every rule holds one (AggSpec.onePerNode), else 0

	// rules holds the rule labels by number and the widest rule body; every
	// store of the program reads them through one pointer.
	rules provenance.Rules

	// scratches is the free list of round scratch every node of the program
	// borrows from while it runs (scratch.go).
	scratches scratchPool

	// metaUsed reports that the program's own rules or facts name prov or
	// ruleExec (the Algorithm 1 rewrite derives them). Otherwise only a
	// centralized-mode node holds those two relations (tablesFor).
	metaUsed bool
}

type occurrence struct {
	rule *CompiledRule
	pos  int // body atom position triggered by the delta
}

// PredInfo describes one predicate of the program.
type PredInfo struct {
	Name  string
	Arity int
	Event bool
	Base  bool // EDB: never derived by a rule
	// Recursive marks predicates on a cycle of the head→body dependency
	// graph (stratify.go). Their tuples can carry phantom cyclic support,
	// so retraction follows the two-phase over-delete/re-derive protocol
	// instead of exact derivation counting.
	Recursive bool
	// Stratum is the predicate's SCC number in reverse topological order
	// of the head→body condensation: a predicate's bodies never live in a
	// higher stratum. The retraction protocol releases staged suspects in
	// ascending stratum waves (Node.ReleaseStaged), so supports re-derive
	// before their dependents validate.
	Stratum int

	// tableID is a dense index over the program's stored (non-event)
	// predicates (Program.tables), assigned at compile time so a node keeps
	// its relations' counts in a slice and tags each entry with its
	// relation. -1 for events; prov and ruleExec come last unless the
	// program names them, so a node that holds neither sizes its slice
	// short of them.
	tableID int
	// occs lists the (rule, body position) pairs a delta of this predicate
	// triggers, so one predicate lookup serves the whole delta-processing
	// path.
	occs []occurrence
	// indexes lists the distinct indexes join steps probe on this stored
	// predicate: a relation files each visible entry under every one.
	indexes []index
	// meta marks prov and ruleExec, the provenance relations themselves
	// (§4.1): their tuples are stored without provenance bookkeeping of
	// their own.
	meta bool
}

// CompiledRule is the executable form of one NDlog rule.
type CompiledRule struct {
	Label       string
	HeadPred    string
	HeadLocPos  int
	HeadIsEvent bool
	headCode    []exprCode
	numVars     int
	atoms       []*atomSpec
	plans       []*plan  // one per body atom position, chosen at Compile
	agg         *AggSpec // non-nil for aggregate rules
	idx         int      // position in Program.Rules; tags the rule's aggregate groups and ruleExec rows
	prog        *Program // declares the indexes its plans' join steps probe
	source      *ndlog.Rule
	slots       map[string]int // variable -> env slot
	// headRecursive mirrors PredInfo.Recursive for the head predicate:
	// aggregate winner promotions triggered by deletes of such rules are
	// staged for the re-derivation phase (agg.go).
	headRecursive bool
	// headStratum mirrors PredInfo.Stratum for the head predicate; staged
	// aggregate groups release in its wave.
	headStratum int
}

// AggSpec describes an aggregate rule head.
type AggSpec struct {
	Fn        string // MIN, MAX, COUNT, AGGLIST
	AggPos    int    // head argument position holding the aggregate
	groupCode []exprCode
	// keyPos lists the body-atom argument positions an input entry's
	// aggregate key is read from: the aggregated then the carried variables
	// (MIN/MAX), or the listed ones (AGGLIST). COUNT has none.
	keyPos []int
	// onePerNode marks a rule grouped by its body atom's location alone: it
	// runs where that atom lives, so a node holds at most one of its groups.
	onePerNode bool
}

// ordered reports a MIN/MAX aggregate: its output is its first row, traced
// to that row's input entry.
func (s *AggSpec) ordered() bool { return s.Fn == "MIN" || s.Fn == "MAX" }

type atomSpec struct {
	pred  string
	arity int
}

// Compile validates and compiles an NDlog program.
func Compile(p *ndlog.Program) (*Program, error) {
	if err := ndlog.Validate(p); err != nil {
		return nil, err
	}
	if len(p.Rules) > provenance.MaxRules {
		return nil, fmt.Errorf("engine: %d rules, more than the %d a provenance store can number", len(p.Rules), provenance.MaxRules)
	}
	prog := &Program{
		byBodyPred: make(map[string][]occurrence),
		preds:      make(map[string]*PredInfo),
	}
	heads := ndlog.HeadPreds(p)
	notePred := func(name string, arity int) error {
		info, ok := prog.preds[name]
		if !ok {
			prog.preds[name] = &PredInfo{
				Name:  name,
				Arity: arity,
				Event: ndlog.IsEventPred(name),
				Base:  !heads[name],
			}
			return nil
		}
		if info.Arity != arity {
			return fmt.Errorf("engine: predicate %s used with arities %d and %d", name, info.Arity, arity)
		}
		return nil
	}

	for i, r := range p.Rules {
		label := r.Label
		if label == "" {
			label = fmt.Sprintf("r%d", i+1)
		}
		cr, err := compileRule(r, label)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", label, err)
		}
		prog.Rules = append(prog.Rules, cr)
		if err := notePred(cr.HeadPred, headArity(r)); err != nil {
			return nil, err
		}
		for pos, a := range cr.atoms {
			if err := notePred(a.pred, a.arity); err != nil {
				return nil, err
			}
			prog.byBodyPred[a.pred] = append(prog.byBodyPred[a.pred], occurrence{rule: cr, pos: pos})
		}
	}
	for _, f := range p.Facts {
		if err := notePred(f.Pred, len(f.Args)); err != nil {
			return nil, err
		}
	}
	// Every program declares the provenance relations, prov(@Loc,VID,RID,
	// RLoc) and ruleExec(@RLoc,RID,R,VIDList): a centralized server stores
	// the rows it receives as their tuples, and a node makes no relation
	// its program does not declare.
	for _, meta := range metaPreds {
		if _, ok := prog.preds[meta]; ok {
			prog.metaUsed = true
		}
		if err := notePred(meta, 4); err != nil {
			return nil, err
		}
		prog.preds[meta].meta = true
	}

	// Number every stored predicate, plan every rule (join steps declare
	// their indexes), number the join steps and record scratch sizes.
	prog.predList = make([]*PredInfo, 0, len(prog.preds))
	for _, info := range prog.preds {
		prog.predList = append(prog.predList, info)
	}
	sort.Slice(prog.predList, func(i, j int) bool { return prog.predList[i].Name < prog.predList[j].Name })
	for _, info := range prog.predList {
		info.occs = prog.byBodyPred[info.Name]
		info.tableID = -1
		if !info.Event && (!info.meta || prog.metaUsed) {
			prog.tables = append(prog.tables, info)
		}
	}
	if !prog.metaUsed {
		for _, meta := range metaPreds {
			prog.tables = append(prog.tables, prog.preds[meta])
		}
	}
	for i, info := range prog.tables {
		info.tableID = i
	}
	if len(prog.tables) > math.MaxUint16+1 { // entry.table holds a table number
		return nil, fmt.Errorf("engine: %d stored predicates, at most %d", len(prog.tables), math.MaxUint16+1)
	}
	bounded := true
	for ri, cr := range prog.Rules {
		cr.idx, cr.prog = ri, prog
		prog.rules.Labels = append(prog.rules.Labels, cr.Label)
		if cr.agg != nil {
			prog.groupBound++
			bounded = bounded && cr.agg.onePerNode
		}
		atoms := cr.source.BodyAtoms()
		for k := range atoms {
			pl, err := buildPlan(cr, atoms, k, nil)
			if err != nil {
				return nil, fmt.Errorf("rule %s: %w", cr.Label, err)
			}
			cr.plans = append(cr.plans, pl)
		}
		if cr.numVars > prog.maxVars {
			prog.maxVars = cr.numVars
		}
		if len(cr.atoms) > prog.rules.MaxInputs {
			prog.rules.MaxInputs = len(cr.atoms)
		}
		if cr.agg != nil && len(cr.agg.groupCode) > prog.maxGroup {
			prog.maxGroup = len(cr.agg.groupCode)
		}
		for _, pl := range cr.plans {
			for i := range pl.steps {
				if pl.steps[i].kind == stepJoin {
					pl.steps[i].joinID = prog.numJoins
					prog.numJoins++
				}
			}
		}
	}
	if !bounded {
		prog.groupBound = 0
	}
	prog.markRecursive()
	return prog, nil
}

// metaPreds names the provenance relations every program declares.
var metaPreds = [...]string{"prov", "ruleExec"}

// tablesFor reports how many relations a node of this program holds in the
// given mode: every stored predicate, less prov and ruleExec unless the node
// is in centralized mode or the program names them.
func (p *Program) tablesFor(mode ProvMode) int {
	if mode == ProvCentralized || p.metaUsed {
		return len(p.tables)
	}
	return len(p.tables) - len(metaPreds)
}

// headArity accounts for MIN/MAX aggregates with carried attributes, which
// expand in place: min<C,P> contributes two head attributes.
func headArity(r *ndlog.Rule) int {
	n := 0
	for _, a := range r.Head.Args {
		if agg, ok := a.(*ndlog.Agg); ok && (agg.Fn == "MIN" || agg.Fn == "MAX") {
			n += len(agg.Vars)
			continue
		}
		n++
	}
	return n
}

// declareIndex returns the number of the stored predicate's index over
// positions (whose indexID is id), declaring it on first sight. Numbers are
// program-wide, so a node keys every index's buckets in one map.
func (p *Program) declareIndex(info *PredInfo, id string, positions []int) int {
	for _, ix := range info.indexes {
		if ix.id == id {
			return ix.num
		}
	}
	info.indexes = append(info.indexes, index{num: p.numIndexes, id: id, positions: positions})
	p.numIndexes++
	return p.numIndexes - 1
}

// Pred returns predicate metadata (nil when the program does not declare it).
func (p *Program) Pred(name string) *PredInfo { return p.preds[name] }

// Preds returns all predicates sorted by name. The slice is the program's
// own, built once by Compile: callers must not modify it.
func (p *Program) Preds() []*PredInfo { return p.predList }

func compileRule(r *ndlog.Rule, label string) (*CompiledRule, error) {
	atoms := r.BodyAtoms()
	seen := map[string]int{}
	for _, a := range atoms {
		seen[a.Pred]++
		if seen[a.Pred] > 1 {
			return nil, fmt.Errorf("predicate %s appears twice in the body (self-joins are unsupported)", a.Pred)
		}
	}

	// Assign variable slots: body atom variables first (in occurrence
	// order), then assignment targets.
	slots := map[string]int{}
	alloc := func(name string) int {
		if s, ok := slots[name]; ok {
			return s
		}
		s := len(slots)
		slots[name] = s
		return s
	}
	for _, a := range atoms {
		for _, arg := range a.Args {
			for _, v := range ndlog.Vars(arg) {
				alloc(v)
			}
		}
	}
	for _, t := range r.Body {
		if v, ok := t.(*ndlog.Assign); ok {
			alloc(v.Lhs)
		}
	}

	cr := &CompiledRule{
		Label:       label,
		HeadPred:    r.Head.Pred,
		HeadLocPos:  r.Head.LocPos,
		HeadIsEvent: ndlog.IsEventPred(r.Head.Pred),
		numVars:     len(slots),
		source:      r,
		slots:       slots,
	}
	for _, a := range atoms {
		cr.atoms = append(cr.atoms, &atomSpec{pred: a.Pred, arity: len(a.Args)})
	}
	// Aggregate rules: this engine evaluates aggregates over a single
	// stored body atom (MIN/MAX provenance traces to one winning input
	// tuple); join-then-aggregate rules must be split through an
	// intermediate predicate. A group's rows are handles to the body
	// relation's entries, so an event, which has none, cannot feed one, and
	// each aggregated variable is read off an argument of the atom.
	if agg, aggPos := r.AggSpec(); agg != nil {
		if len(atoms) != 1 {
			return nil, fmt.Errorf("aggregate rules must have a single body atom")
		}
		body := atoms[0]
		if body.IsEvent() {
			return nil, fmt.Errorf("aggregate over event predicate %s: aggregate inputs must be stored", body.Pred)
		}
		argPos := func(v string) (int, error) {
			for pos, arg := range body.Args {
				if x, ok := arg.(*ndlog.Var); ok && x.Name == v {
					return pos, nil
				}
			}
			if _, ok := slots[v]; ok {
				return 0, fmt.Errorf("aggregate variable %s is bound by an assignment, not by an argument of %s", v, body.Pred)
			}
			return 0, fmt.Errorf("aggregate variable %s unbound", v)
		}
		spec := &AggSpec{Fn: agg.Fn, AggPos: aggPos}
		for i, harg := range r.Head.Args {
			if i == aggPos {
				continue
			}
			code, err := compileExpr(harg, slots)
			if err != nil {
				return nil, err
			}
			spec.groupCode = append(spec.groupCode, code)
		}
		if len(spec.groupCode) == 1 && body.LocPos >= 0 {
			g, _ := r.Head.Args[1-aggPos].(*ndlog.Var)
			loc, _ := body.Args[body.LocPos].(*ndlog.Var)
			spec.onePerNode = g != nil && loc != nil && *g == *loc
		}
		switch agg.Fn {
		case "MIN", "MAX", "AGGLIST":
			if len(agg.Vars) == 0 {
				return nil, fmt.Errorf("%s aggregate needs a variable", agg.Fn)
			}
			for _, v := range agg.Vars {
				pos, err := argPos(v)
				if err != nil {
					return nil, err
				}
				spec.keyPos = append(spec.keyPos, pos)
			}
		case "COUNT":
			// COUNT<*> has no variable.
		default:
			return nil, fmt.Errorf("unsupported aggregate %s", agg.Fn)
		}
		cr.agg = spec
		// The aggregate body may still have assignments/conditions; they
		// run inside the single plan.
	} else {
		for _, harg := range r.Head.Args {
			code, err := compileExpr(harg, slots)
			if err != nil {
				return nil, err
			}
			cr.headCode = append(cr.headCode, code)
		}
	}
	return cr, nil
}

// planable reports whether the rule's join order is a choice: non-aggregate
// and at least three body atoms (with two, the delta position fixes the only
// remaining probe, so every legal plan is the default one).
func (cr *CompiledRule) planable() bool {
	return cr.agg == nil && len(cr.atoms) >= 3
}
