package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"

	"probtopk/perfbench/check"
)

// member is one (k, threshold) query of a batch.
type member struct {
	K         int     `json:"k"`
	Threshold float64 `json:"threshold,omitempty"`
}

// op is one request the benchmark sends, in structured form: the HTTP
// request is rendered from it, the traced mode re-enacts it layer by layer,
// and the checks read their parameters from it.
type op struct {
	kind      string // topk, batch, typical, baseline, put, append, csv
	post      bool
	table     string
	k, c      int
	threshold float64 // wire value: 0 is the 0.001 default
	exact     bool
	maxLines  int // wire value: 0 is the 200-line default
	algorithm string
	normalize bool
	semantic  string
	p         float64
	members   []member
	tuples    []check.Tuple
	rendered  *rendered // the request, when rendered ahead of time
}

// rendered is an HTTP request in wire form.
type rendered struct {
	method, path, ctype string
	body                []byte
}

// render fixes o's request ahead of time, so that sending it later costs
// no encoding.
func (o *op) render() {
	method, path, ctype, body := o.request()
	o.rendered = &rendered{method, path, ctype, body}
}

// isQuery reports whether o is a query (as opposed to a table operation).
func (o *op) isQuery() bool {
	switch o.kind {
	case "topk", "batch", "typical", "baseline":
		return true
	}
	return false
}

// lineCap is the line cap the server applies to o: 0 when uncapped.
func (o *op) lineCap() int {
	switch {
	case o.exact, o.maxLines < 0:
		return 0
	case o.maxLines == 0:
		return 200
	}
	return o.maxLines
}

// request renders o as an HTTP method, path (with query string) and body.
func (o *op) request() (method, path, ctype string, body []byte) {
	if pre := o.rendered; pre != nil {
		return pre.method, pre.path, pre.ctype, pre.body
	}
	base := "/tables/" + o.table
	switch o.kind {
	case "put":
		data, _ := json.Marshal(map[string]any{"tuples": o.tuples})
		return "PUT", base, "application/json", data
	case "append":
		data, _ := json.Marshal(map[string]any{"tuples": o.tuples})
		return "POST", base + "/tuples", "application/json", data
	case "csv":
		return "GET", base + "/csv", "", nil
	case "batch":
		data, _ := json.Marshal(map[string]any{"queries": o.members})
		return "POST", base + "/topk/batch", "application/json", data
	}
	path = base + "/" + o.kind
	if o.kind == "baseline" {
		path += "/" + o.semantic
	}
	q := map[string]any{"k": o.k}
	if o.c != 0 {
		q["c"] = o.c
	}
	if o.threshold != 0 {
		q["threshold"] = o.threshold
	}
	if o.exact {
		q["exact"] = true
	}
	if o.maxLines != 0 {
		q["maxLines"] = o.maxLines
	}
	if o.algorithm != "" {
		q["algorithm"] = o.algorithm
	}
	if o.normalize {
		q["normalize"] = true
	}
	if o.p != 0 {
		q["p"] = o.p
	}
	if o.post {
		data, _ := json.Marshal(q)
		return "POST", path, "application/json", data
	}
	vals := url.Values{}
	for key, v := range q {
		switch v := v.(type) {
		case float64:
			vals.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
		default:
			vals.Set(key, fmt.Sprint(v))
		}
	}
	return "GET", path + "?" + vals.Encode(), "", nil
}

// deck deals distribution queries with stratified shapes. Each card is a
// (table, k, line cap) combination: k in 1..12 (on the CarTel table, whose
// every segment is an exclusive group of mass 1 and costs many times more
// per k, k in 1..6, each twice), and in equal shares the default 200-line
// cap, a cap drawn from 50..300, or no cap. Every combination appears once
// per pass, in a seeded order, and the threshold comes from one of four
// equal bands of [2e-4, 5e-3] (log scale) dealt in turn, drawn uniformly
// inside its band, so no two queries of a run coincide. Two runs with
// different seeds thus ask the same mix of query shapes and differ in the
// exact thresholds and the table contents; drawn independently, the share
// of expensive shapes moved a run's throughput by several percent.
//
// Uncapped cards stay at k ≤ 6 on the §5.4 tables (the others get the
// default cap): without a cap the line count grows with k and with
// exclusive groups, and an uncapped k=4 query on the CarTel table answers
// with hundreds of megabytes.
type deck struct {
	r     *rand.Rand
	cards []card
	next  int
}

type card struct {
	table string
	k     int
	cap   int // 0 default, 1 drawn, 2 none
}

func newDeck(r *rand.Rand, tables []string, uncapped bool) *deck {
	d := &deck{r: r}
	caps := 3
	if !uncapped {
		caps = 2
	}
	for _, t := range tables {
		for k := 1; k <= 12; k++ {
			for c := range caps {
				cd := card{table: t, k: k, cap: c}
				if t == "cartel" {
					cd.k = 1 + (k-1)/2
				}
				if c == 2 && (t == "cartel" || cd.k > 6) {
					cd.cap = 0
				}
				d.cards = append(d.cards, cd)
			}
		}
	}
	d.next = len(d.cards)
	return d
}

// draw deals the next distribution query.
func (d *deck) draw() *op {
	if d.next == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
		d.next = 0
	}
	c := d.cards[d.next]
	band := d.next % 4
	d.next++
	lo, hi := math.Log(2e-4), math.Log(5e-3)
	o := &op{
		kind:      "topk",
		table:     c.table,
		k:         c.k,
		threshold: math.Exp(lo + (float64(band)+d.r.Float64())*(hi-lo)/4),
	}
	switch c.cap {
	case 1:
		o.maxLines = 50 + d.r.IntN(251)
	case 2:
		o.maxLines = -1
	}
	return o
}
