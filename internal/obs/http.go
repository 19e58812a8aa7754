package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"

	"flatstore/internal/stats"
)

// HTTP rendering of snapshots: a Prometheus text-format endpoint (summary
// metrics with quantile labels, so no external client library is needed)
// and a JSON endpoint for humans and scripts. Both call the snapshot
// function per request — the registry side is cheap to sample.

// Handler serves snapshots in Prometheus text exposition format.
func Handler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s := snap()
		WritePrometheus(w, &s)
	})
}

// JSONHandler serves snapshots as JSON: encoding/json over the Snapshot
// itself (histograms digest, the role renders by name).
func JSONHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap())
	})
}

// family is one declared Prometheus metric family: where its samples
// live in a Snapshot and how they are labelled.
type family struct {
	name, kind string
	scale      float64 // sample values are divided by it (1e9: ns held, seconds shown)
	gate       []int   // index path of the block's bool switch; nil: always rendered
	list       []int   // index path of the slice or array the samples are elements of; nil: one sample
	field      []int   // index path of the value, from the list element (from the Snapshot without a list)
	label      string  // label key of each sample, "" for none
	labelAt    []int   // index path (like field) of the label's value; nil: the element index
}

// families is every series the tags of Snapshot declare, in declaration
// order. Built once; a malformed declaration panics at start-up.
var families = declare(reflect.TypeOf(Snapshot{}), family{})

// child extends an index path without sharing its backing array.
func child(path []int, i int) []int { return append(path[:len(path):len(path)], i) }

// declare collects the families of struct type t, in one pass over its
// fields. in carries what the declarations so far decided (gate, list,
// element label) and, in in.field, the path walked to t.
func declare(t reflect.Type, in family) []family {
	var out []family
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fam := in
		fam.field = child(in.field, i)
		elem := f.Type
		if k := elem.Kind(); k == reflect.Slice || k == reflect.Array {
			elem = elem.Elem()
		}
		tag, ok := f.Tag.Lookup("prom")
		key, labels := f.Tag.Lookup("label")
		switch {
		case ok:
			part := append(strings.Split(tag, ","), "", "") // name,kind[,label], padded so that all three index
			fam.name, fam.kind, fam.scale = part[0], part[1], 1
			if strings.HasSuffix(fam.name, "_seconds") {
				fam.scale = 1e9
			}
			if part[2] != "" {
				fam.label, fam.labelAt = part[2], fam.field
			}
			summary := elem.Kind() == reflect.Pointer
			if len(part) > 5 || fam.name == "" || (fam.kind == "summary") != summary ||
				!summary && fam.kind != "counter" && fam.kind != "gauge" {
				panic(fmt.Sprintf("obs: %s.%s: malformed prom tag %q", t, f.Name, tag))
			}
			out = append(out, fam)
		case elem.Kind() == reflect.Bool && in.list == nil:
			in.gate = fam.field // the switch of the block's fields from here on
		case labels && elem == f.Type:
			in.label, in.labelAt = key, fam.field // labels the element's series from here on
		case elem.Kind() != reflect.Struct:
			// No series: the field is on the wire and in the JSON only.
		case elem == f.Type:
			out = append(out, declare(elem, fam)...)
		case in.list != nil:
			panic(fmt.Sprintf("obs: %s.%s: a list inside a list", t, f.Name))
		default:
			out = append(out, declare(elem, family{gate: in.gate, list: fam.field, label: key})...)
		}
	}
	return out
}

// quantiles rendered for every summary metric.
var summaryQs = []float64{50, 90, 99, 99.9}

// series renders a sample's name and label block; the empty labels are
// skipped, and with none there are no braces (name{} is invalid).
func series(name string, labels ...string) string {
	var set []string
	for _, l := range labels {
		if l != "" {
			set = append(set, l)
		}
	}
	if len(set) == 0 {
		return name
	}
	return name + "{" + strings.Join(set, ",") + "}"
}

// WritePrometheus renders the snapshot in Prometheus text format, one
// TYPE line per family. On a sharded server every series carries a
// shard="<id>" label, so the scrapes of a whole cluster aggregate side by
// side in one Prometheus without per-target relabeling.
func WritePrometheus(w io.Writer, s *Snapshot) {
	root := reflect.ValueOf(s).Elem()
	base := ""
	if s.Shard.Configured {
		base = fmt.Sprintf("shard=\"%d\"", s.Shard.ID)
	}
	for _, f := range families {
		if f.gate != nil && !root.FieldByIndex(f.gate).Bool() {
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		if f.list == nil {
			f.sample(w, base, root, 0)
			continue
		}
		list := root.FieldByIndex(f.list)
		for i := 0; i < list.Len(); i++ {
			f.sample(w, base, list.Index(i), i)
		}
	}
}

// sample renders the family's sample found in from (the Snapshot, or
// element i of the family's list) under the scrape-wide base label.
func (f family) sample(w io.Writer, base string, from reflect.Value, i int) {
	own := ""
	if f.label != "" {
		var v any = i
		if f.labelAt != nil {
			v = from.FieldByIndex(f.labelAt).Interface()
		}
		own = fmt.Sprintf("%s=%q", f.label, fmt.Sprint(v))
	}
	var n any
	switch v := from.FieldByIndex(f.field); {
	case v.Kind() == reflect.Pointer:
		// A summary: quantile series plus exact _sum and _count.
		h := v.Interface().(*stats.Histogram)
		for _, q := range summaryQs {
			fmt.Fprintf(w, "%s %g\n", series(f.name, base, own, fmt.Sprintf("quantile=\"%g\"", q/100)),
				float64(h.Percentile(q))/f.scale)
		}
		fmt.Fprintf(w, "%s %g\n", series(f.name+"_sum", base, own), float64(stats.Sum(h))/f.scale)
		fmt.Fprintf(w, "%s %d\n", series(f.name+"_count", base, own), h.Count())
		return
	case v.Kind() == reflect.Slice:
		n = v.Len()
	case v.CanInt() && f.scale != 1:
		n = float64(v.Int()) / f.scale
	case v.CanInt():
		n = v.Int()
	default:
		n = v.Uint()
	}
	fmt.Fprintf(w, "%s %v\n", series(f.name, base, own), n)
}
