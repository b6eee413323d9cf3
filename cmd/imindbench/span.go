package main

import (
	"sort"
	"time"
)

// span is one timed call inside an op. Spans of one op share its opTrace;
// parent indexes the same slice, -1 marks the op's root span.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// opTrace collects the spans of one op in memory. A disabled trace (spans
// off) records nothing and takes no timestamps.
type opTrace struct {
	id    int
	kind  opKind
	setup bool
	on    bool
	spans []span
}

// begin opens a span under parent and returns its index (-1 when off).
func (t *opTrace) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) {
	if i >= 0 {
		t.spans[i].end = time.Now()
	}
}

// closed records a span that has already ended, lasting d.
func (t *opTrace) closed(name string, parent int, d time.Duration) {
	if !t.on || parent < 0 {
		return
	}
	now := time.Now()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now.Add(-d), end: now})
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals. The root's self time is the op's uncovered gap.
func (t *opTrace) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end.Sub(s.start) - covered(t.spans, children[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi time.Time) time.Duration {
	iv := make([][2]time.Time, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].start, spans[i].end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for k, x := range iv {
		if k == 0 || x[0].After(curB) {
			total += curB.Sub(curA)
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	return total + curB.Sub(curA)
}

// accounting checks one op: the self times of all its spans plus the
// uncovered gap (the root's self time) must add up to the op span. It
// returns the op's duration, the covered share, and whether the sum holds
// to within a microsecond (it fails when sibling spans overlap).
func (t *opTrace) accounting() (total time.Duration, coverage float64, ok bool) {
	if len(t.spans) == 0 {
		return 0, 0, false
	}
	self := t.selfTimes()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	total = t.spans[0].end.Sub(t.spans[0].start)
	if total > 0 {
		coverage = 1 - float64(self[0])/float64(total)
	}
	diff := sum - total
	return total, coverage, diff < time.Microsecond && diff > -time.Microsecond
}
