package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sknn/internal/mpc"
)

// A span is one timed interval at a layer boundary. Spans of one client
// query share its Query number (0 = set-up, mutation or teardown work
// that belongs to no query); Parent is the span that caused this one.
// Every span is recorded from the benchmark's own files, around a call
// into a layer's public functions — the program under test carries no
// instrumentation of its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the work the span carried: ciphertexts on a round trip,
	// candidates out of a shard scan, rows out of a query.
	Count int `json:"count"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the length of a traced pass. A nil
// tracer records nothing, so call sites need no branch for the untraced
// pass.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu; spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span starting now and returns its id.
func (t *tracer) begin(parent, query int, layer, name string) int {
	if t == nil {
		return 0
	}
	return t.add(parent, query, layer, name, t.now(), 0, 0)
}

// end closes the span now.
func (t *tracer) end(id, count int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// add records a span whose times are already known.
func (t *tracer) add(parent, query int, layer, name string, start, end int64, count int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Layer: layer, Name: name, Start: start, End: end, Count: count})
	return id
}

// endOf is when the span ended.
func (t *tracer) endOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].End
}

// setTimes moves a span opened as a placeholder onto its measured times.
func (t *tracer) setTimes(id int, start, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
}

// closed returns the spans that ended (a request still in flight at
// teardown, such as the reply-less OpClose, never does).
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// cover is the total length of the union of the intervals, each clipped
// to [lo, hi) — how much of a span its children account for when they
// overlap (parallel links) or touch.
func cover(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		if x[0] < lo {
			x[0] = lo
		}
		if x[1] > hi {
			x[1] = hi
		}
		if x[1] > x[0] {
			clipped = append(clipped, x)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, x := range clipped {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// selfTimes is, per span id, the span's duration minus the part of it
// its direct children cover. Over a tree whose children lie inside
// their parents the self times sum to the root's duration.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - cover(children[s.ID], s.Start, s.End)
	}
	return self
}

// rttRef remembers which link and session tag a round-trip span was
// seen on, so the C2-side handler time can be matched to it afterwards.
type rttRef struct {
	Span  int
	Link  string
	Tag   uint64
	Op    mpc.Op
	Start int64
}

// handleEvent is one request as C2's handler saw it.
type handleEvent struct {
	Link       string
	Tag        uint64
	Op         mpc.Op
	Start, End int64
}

// matchHandles pairs every C2 handler event with the C1 round trip that
// carried it. A session has at most one request outstanding per link, so
// on one (link, tag) the i-th request sent is the i-th request handled;
// the opcode is checked as a guard. It returns round-trip span id →
// handler event, and how many events found no partner.
func matchHandles(rtts []rttRef, handles []handleEvent) (map[int]handleEvent, int) {
	type key struct {
		link string
		tag  uint64
	}
	sent := make(map[key][]rttRef)
	for _, r := range rtts {
		k := key{r.Link, r.Tag}
		sent[k] = append(sent[k], r)
	}
	seen := make(map[key][]handleEvent)
	for _, h := range handles {
		k := key{h.Link, h.Tag}
		seen[k] = append(seen[k], h)
	}
	out := make(map[int]handleEvent, len(handles))
	unmatched := 0
	for k, hs := range seen {
		rs := sent[k]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		sort.Slice(hs, func(i, j int) bool { return hs[i].Start < hs[j].Start })
		for i, h := range hs {
			if i >= len(rs) || rs[i].Op != h.Op {
				unmatched++
				continue
			}
			out[rs[i].Span] = h
		}
	}
	return out, unmatched
}

// owner is a C1-side span that round trips are charged to: a c1.query,
// a shard scan, or a gateway backend call.
type owner struct{ span, query int }

// scope is one C1 link pool as the trace sees it. Round trips carry a
// session tag but not the query they serve, so the first frame of an
// unseen tag is bound to the owner currently inside this pool that has
// the fewest sessions on that link (the oldest on a tie). With one
// client in flight that is exact; with two it can swap the sessions of
// two queries that entered the same pool at the same moment, which are
// doing identical work.
type scope struct {
	mu       sync.Mutex
	inflight []owner           // guarded by mu; entry order
	bound    map[linkTag]owner // guarded by mu
	nbound   map[ownerLink]int // guarded by mu
}

type linkTag struct {
	link string
	tag  uint64
}

type ownerLink struct {
	span int
	link string
}

func newScope() *scope {
	return &scope{bound: make(map[linkTag]owner), nbound: make(map[ownerLink]int)}
}

// enter and leave bracket an owner's stay in the pool; a nil scope (the
// untraced pass) ignores both.
func (s *scope) enter(o owner) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inflight = append(s.inflight, o)
	s.mu.Unlock()
}

func (s *scope) leave(o owner) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i, x := range s.inflight {
		if x == o {
			s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// ownerFor resolves the owner of a frame on (link, tag); the zero owner
// means the frame belongs to no query (handshake, teardown).
func (s *scope) ownerFor(link string, tag uint64) owner {
	s.mu.Lock()
	defer s.mu.Unlock()
	lt := linkTag{link, tag}
	if o, ok := s.bound[lt]; ok {
		return o
	}
	if len(s.inflight) == 0 {
		return owner{}
	}
	best := s.inflight[0]
	for _, o := range s.inflight[1:] {
		if s.nbound[ownerLink{o.span, link}] < s.nbound[ownerLink{best.span, link}] {
			best = o
		}
	}
	s.bound[lt] = best
	s.nbound[ownerLink{best.span, link}]++
	return best
}

// traceKit is everything a traced pass installs: the tracer, the C2
// handler log and the per-link taps and byte counters.
type traceKit struct {
	tr *tracer

	mu      sync.Mutex
	handles []handleEvent // guarded by mu
	taps    []*linkTap    // guarded by mu
	conns   []*countingConn
}

func newTraceKit() *traceKit { return &traceKit{tr: newTracer()} }

// tracerOf returns the kit's tracer, nil for the untraced pass.
func tracerOf(k *traceKit) *tracer {
	if k == nil {
		return nil
	}
	return k.tr
}

// finish attaches every matched C2 handler event as a c2.handle span
// under its round trip and returns the finished span list.
func (k *traceKit) finish() (spans []span, unmatched int) {
	k.mu.Lock()
	var rtts []rttRef
	for _, t := range k.taps {
		t.mu.Lock()
		rtts = append(rtts, t.refs...)
		t.mu.Unlock()
	}
	handles := append([]handleEvent(nil), k.handles...)
	k.mu.Unlock()

	ended := make(map[int]span)
	for _, s := range k.tr.closed() {
		ended[s.ID] = s
	}
	pairs, unmatched := matchHandles(rtts, handles)
	for id, h := range pairs {
		rtt, ok := ended[id]
		if !ok || rtt.Query == 0 {
			continue
		}
		k.tr.add(id, rtt.Query, "c2", fmt.Sprintf("c2.handle:%d", h.Op), h.Start, h.End, 0)
	}
	return k.tr.closed(), unmatched
}

// socketBytes is the traffic the counting connections saw, both ways.
func (k *traceKit) socketBytes() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var n int64
	for _, c := range k.conns {
		n += c.read.Load() + c.written.Load()
	}
	return n
}

// frames is how many message frames crossed the tapped links.
func (k *traceKit) frames() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var n int64
	for _, t := range k.taps {
		n += t.frames.Load()
	}
	return n
}

// writeTrace stores the spans of one workload as JSON.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
