// Package obs carries what a component records on — its metrics
// registry, violation tracer and structured event log — as one value
// handed to the component's constructor. It imports the telemetry and
// eventlog packages and neither imports it.
package obs

import (
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Kit is a component's observability wiring. Its zero value means "not
// instrumented": a component built with it registers no metric name,
// opens no trace and records no event, at the cost of no telemetry at
// all. Any field may be nil on its own.
type Kit struct {
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
	Log     *eventlog.Logger
}
