package main

import (
	"fmt"
	"math"

	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// decision is one served marshalling decision for the task's single
// event, as the client saw it.
type decision struct {
	anchor     int
	relay      bool
	start, end int // absolute, inclusive; valid when relay
	deferred   bool
	detections int
}

// truthInterval is the first true occurrence of event k in the horizon
// after anchor, clipped to the horizon — the label of Eq. 12, computed
// from the stream itself.
func truthInterval(st *video.Stream, k, anchor, h int) (video.Interval, bool) {
	hz := video.Interval{Start: anchor + 1, End: anchor + h}
	in, ok := st.FirstOverlapping(k, hz)
	if !ok {
		return video.Interval{}, false
	}
	iv, _ := in.OI.Intersect(hz)
	return iv, true
}

// recTally accumulates frame-level recall (Eq. 12): the mean, over
// horizons where the event occurs, of the share of its true frames the
// decided relay range covers.
type recTally struct {
	num float64
	den int
}

func (t *recTally) add(st *video.Stream, k, h int, d decision) {
	truth, ok := truthInterval(st, k, d.anchor, h)
	if !ok {
		return
	}
	t.den++
	if !d.relay {
		return
	}
	if ov, ok := (video.Interval{Start: d.start, End: d.end}).Intersect(truth); ok {
		t.num += float64(ov.Len()) / float64(truth.Len())
	}
}

func (t recTally) value() float64 {
	if t.den == 0 {
		return 0
	}
	return t.num / float64(t.den)
}

// coverageTally counts C-CLASSIFY existence coverage: positive horizons
// whose decision relays.
type coverageTally struct{ positives, covered int }

func (t *coverageTally) add(st *video.Stream, k, h int, d decision) {
	if _, ok := truthInterval(st, k, d.anchor, h); !ok {
		return
	}
	t.positives++
	if d.relay {
		t.covered++
	}
}

// coverageDelta is the failure probability each Hoeffding term of the
// coverage slack is taken at.
const coverageDelta = 1e-3

// coverageSlack is the finite-sample slack of the pooled coverage check.
// C-CLASSIFY's guarantee is marginal: conditional on the nCal positive
// calibration scores it was fitted on, the true coverage of the deployed
// classifier can sit below the nominal confidence by a
// sqrt(ln(1/δ)/(2·nCal)) Hoeffding term, and the coverage observed over
// n positive test horizons can sit below that by sqrt(ln(1/δ)/(2·n)).
func coverageSlack(n, nCal int) float64 {
	l := math.Log(1 / coverageDelta)
	return math.Sqrt(l/(2*float64(n))) + math.Sqrt(l/(2*float64(nCal)))
}

// checkCoverage checks pooled coverage against the confidence minus the
// slack and prints the figures.
func (r *runner) checkCoverage(label string, t coverageTally, nCal int) {
	if t.positives == 0 {
		fmt.Fprintf(r.out, "coverage (%s): no positive horizons\n", label)
		return
	}
	cov := float64(t.covered) / float64(t.positives)
	slack := coverageSlack(t.positives, nCal)
	fmt.Fprintf(r.out, "coverage (%s): %.4f over %d positive horizons (floor %.4f = %.2f - slack %.4f, %d calibration positives)\n",
		label, cov, t.positives, confidence-slack, confidence, slack, nCal)
	r.check(cov >= confidence-slack, "coverage %.4f below %.4f", cov, confidence-slack)
}

// checkContained checks that a relay range lies inside its horizon.
func (r *runner) checkContained(d decision, h int) {
	if !d.relay {
		return
	}
	r.check(d.start >= d.anchor+1 && d.end <= d.anchor+h && d.start <= d.end,
		"relay [%d,%d] outside horizon (%d,%d]", d.start, d.end, d.anchor, d.anchor+h)
}

// refDecision is the decision a separately held bundle clone makes on
// the same window, in absolute frames.
func refDecision(b *strategy.Bundle, x [][]float64, anchor int) decision {
	p := b.EHCR(confidence, coverage).Predict(recordOf(x, anchor, 1))
	return decisionOf(p, anchor)
}

func decisionOf(p metrics.Prediction, anchor int) decision {
	d := decision{anchor: anchor, relay: p.Occur[0]}
	if d.relay {
		d.start, d.end = anchor+p.OI[0].Start, anchor+p.OI[0].End
	}
	return d
}

// sameDecision compares the relay verdict and range.
func sameDecision(a, b decision) bool {
	return a.relay == b.relay && (!a.relay || (a.start == b.start && a.end == b.end))
}

// positiveCalibration counts calibration records with the event: the
// nCal of the coverage slack.
func positiveCalibration(in *trainInputs) int {
	n := 0
	for _, rec := range in.splits.CCalib {
		if rec.Label[0] {
			n++
		}
	}
	return n
}
