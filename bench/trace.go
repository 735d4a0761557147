package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// kind identifies one seam the harness can reach from outside the program
// under test; every span carries one. The table maps it to a span name and
// the layer whose budget it is charged to.
type kind uint8

const (
	kOp  kind = iota // root: one timed operation
	kAux             // root: untimed harness work traced for the layer budget
	kNewCluster
	kSeed
	kOnIdle
	kBaseEdit
	kEngineMsg
	kSimRun
	kQueryCall
	kQueryMsg
	kFrameMsg
	kSchedNew
	kSchedInsert
	kSchedRun
	kDeployNew
	kDeployStart
	kDeployInsert
	kDeployWait
	kDeployStop
	numKinds
)

var kinds = [numKinds]struct{ name, layer string }{
	kOp:           {"op", "driver"},
	kAux:          {"aux", "driver"},
	kNewCluster:   {"core.NewCluster", "core"},
	kSeed:         {"Sim.Run:time-zero base tuples", "core"},
	kOnIdle:       {"Sim.OnIdle", "core"},
	kBaseEdit:     {"Cluster.RemoveLink/AddLink", "engine"},
	kEngineMsg:    {"Host.HandleMessage(*engine.Message)", "engine"},
	kSimRun:       {"Sim.Run", "simnet"},
	kQueryCall:    {"Cluster.Query", "provquery"},
	kQueryMsg:     {"Host.HandleMessage(*provquery.Msg)", "provquery"},
	kFrameMsg:     {"Host.HandleMessage(*transport.Frame)", "transport"},
	kSchedNew:     {"engine.NewScheduler", "engine"},
	kSchedInsert:  {"Scheduler.InsertBase", "engine"},
	kSchedRun:     {"Scheduler.Run", "engine"},
	kDeployNew:    {"deploy.NewCluster", "deploy"},
	kDeployStart:  {"Cluster.Start", "deploy"},
	kDeployInsert: {"Cluster.InsertLinks", "deploy"},
	kDeployWait:   {"Cluster.WaitFixpoint", "deploy"},
	kDeployStop:   {"Cluster.Stop", "deploy"},
}

// span is one traced interval. Times are nanoseconds since the tracer was
// created; parent indexes the same operation's span list (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	kind       kind
}

// totals accumulates, over traced operations, each kind's span count, total
// duration and self time (duration minus the part its children cover).
type totals struct {
	n, dur, self [numKinds]int64
}

// layerSelf sums self time over every kind charged to a layer.
func (t *totals) layerSelf(layer string) int64 {
	var ns int64
	for k := range kinds {
		if kinds[k].layer == layer {
			ns += t.self[k]
		}
	}
	return ns
}

// traceKeepSpans bounds the spans retained for the trace file: whole
// operations are kept until the budget is spent (one MINCOST fixpoint alone
// is ~35k spans), the rest only feed the totals.
const traceKeepSpans = 60000

type keptOp struct {
	op    int
	spans []span
}

// tracer records spans of the operation in progress. All of its methods are
// no-ops on a nil receiver, which is how the untraced pass runs the same
// harness code with tracing off.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32

	kept     []keptOp
	keptSize int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(k kind) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: t.top(), kind: k})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned (spans close innermost first).
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records an already-finished childless span under the innermost open
// one — the per-message path, which must stay two clock reads and an append.
func (t *tracer) leaf(k kind, start, end int64) {
	t.spans = append(t.spans, span{start: start, end: end, parent: t.top(), kind: k})
}

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// openStart is the start time of the innermost open span.
func (t *tracer) openStart() int64 { return t.spans[t.top()].start }

// finishOp folds the finished operation's spans into tot, retains them for
// the trace file while the budget lasts, and resets for the next operation.
func (t *tracer) finishOp(op int, tot *totals) {
	if t == nil {
		return
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		tot.n[s.kind]++
		tot.dur[s.kind] += s.end - s.start
		tot.self[s.kind] += self[i]
	}
	if t.keptSize+len(t.spans) <= traceKeepSpans {
		t.kept = append(t.kept, keptOp{op: op, spans: append([]span(nil), t.spans...)})
		t.keptSize += len(t.spans)
	}
	t.spans = t.spans[:0]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other and may
// stick out of the parent; the cover is the union of their intervals clipped
// to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		byStart := func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start }
		if !sort.SliceIsSorted(kids, byStart) {
			sort.Slice(kids, byStart)
		}
		var cover int64
		covered := s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from < covered {
				from = covered
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				cover += to - from
				covered = to
			}
		}
		self[i] = s.end - s.start - cover
	}
	return self
}

// traceSpan is the trace file's row: ids are unique within one operation.
type traceSpan struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type traceFile struct {
	Host     hostShape   `json:"host"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    []traceSpan `json:"spans"`
}

// writeFile writes the retained spans as JSON.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	out := traceFile{Host: host(), Workload: workload, Seed: seed}
	for _, k := range t.kept {
		for i, s := range k.spans {
			out.Spans = append(out.Spans, traceSpan{
				Op: k.op, ID: i, Parent: int(s.parent),
				Layer: kinds[s.kind].layer, Name: kinds[s.kind].name,
				StartNs: s.start, EndNs: s.end,
			})
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
