package pipeline

import (
	"eventhit/internal/cicache"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// Collect mode: the same marshalling loop as RunDetailed, but the relay
// stage is captured instead of served. A stream participating in a fleet
// does not own the CI channel — it submits relay requests to a shared
// scheduler (internal/fleet) and keeps marshalling; the scheduler decides
// when (and whether) each request reaches the backend. Because relay
// outcomes never feed back into the predictor, the captured timeline is a
// pure function of the stream: the fleet can replay, reorder and batch it
// without changing what the stream would have predicted.

// RelayRequest is one captured relay decision: which frames of which event
// the stream wants the CI to analyse, when the request was released on the
// stream's local clock, and how urgent it is.
type RelayRequest struct {
	// Seq numbers the stream's requests in release order (0-based).
	Seq int
	// Horizon indexes the timeline's Records/Preds slices; Event is the
	// event slot k within the task.
	Horizon int
	Event   int
	// EventType is the stream event type to detect (Source.Events()[Event]).
	EventType int
	// Win is the absolute frame range to relay.
	Win video.Interval
	// SlackFrames is the conformal urgency: the predicted occurrence
	// interval's start offset from the anchor — how many frames remain
	// before the event is predicted to begin. Smaller slack means the relay
	// must reach the CI sooner to be worth anything.
	SlackFrames int
	// ReleaseMS is the stream-local simulated time at which the request was
	// submitted (scan and predict time of all horizons up to and including
	// this one).
	ReleaseMS float64
	// Key is the content-addressed cache signature of the request (the
	// quantized covariate window plus the event and the relative range),
	// populated only when the stream's Costs.Cache is set; Keyed says so. A
	// scheduler serving keyed requests may dedup them through a shared
	// cicache.Cache.
	Key   cicache.Key
	Keyed bool
}

// Timeline is one stream's captured marshalling activity over a region.
type Timeline struct {
	Requests []RelayRequest
	Records  []dataset.Record
	Preds    []metrics.Prediction
	// Horizons is the number of prediction steps; Frames the stream frames
	// covered; LocalMS the total scan+predict time (CI time is owned by the
	// scheduler that serves the requests).
	Horizons int
	Frames   int
	ScanMS   float64
	PredMS   float64
}

// LocalMS returns the stream-local processing time (scan + predict).
func (tl Timeline) LocalMS() float64 { return tl.ScanMS + tl.PredMS }

// Collect runs the marshalling loop over [start, end] and captures the
// relay requests instead of serving them. The per-horizon step (record,
// prediction, stage accounting, request keys) is RunDetailed's own; no CI
// call is made, nothing is billed, and the Marshaller's resilient client
// and its clock are untouched.
func (m *Marshaller) Collect(start, end int) (Timeline, error) {
	start, end = m.clamp(start, end)
	var tl Timeline
	for t := start; t+m.cfg.Horizon <= end; t += m.cfg.Horizon {
		rec, pred, scanMS, predictMS, err := m.step(t, len(tl.Records))
		if err != nil {
			return Timeline{}, err
		}
		tl.Horizons++
		tl.ScanMS += scanMS
		tl.PredMS += predictMS
		for _, req := range m.reqs {
			req.Seq = len(tl.Requests)
			req.ReleaseMS = tl.ScanMS + tl.PredMS
			tl.Requests = append(tl.Requests, req)
		}
		tl.Records = append(tl.Records, rec)
		tl.Preds = append(tl.Preds, pred)
	}
	tl.Frames = tl.Horizons * m.cfg.Horizon
	m.horizonsC.Add(float64(tl.Horizons))
	return tl, nil
}
