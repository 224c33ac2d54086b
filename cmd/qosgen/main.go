// Command qosgen partially automates instrumentation, as the paper's
// Section 9 suggests ("This suggests that the instrumentation be
// partially automated"): given a declarative description of an
// executable's sensors, it generates the Go wiring — sensor construction,
// coordinator assembly, registration and probe hooks — so the developer
// only places the probe calls.
//
// Usage:
//
//	qosgen -spec instrumentation.json [-out instrumentation_gen.go]
//
// Spec format:
//
//	{
//	  "package":     "main",
//	  "executable":  "mpeg_play",
//	  "application": "VideoApplication",
//	  "sensors": [
//	    {"id": "fps_sensor",    "attr": "frame_rate",  "kind": "rate",   "param": "1s"},
//	    {"id": "jitter_sensor", "attr": "jitter_rate", "kind": "jitter", "param": "33ms"},
//	    {"id": "buffer_sensor", "attr": "buffer_size", "kind": "gauge"}
//	  ]
//	}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"text/template"
	"time"
)

// Spec is the declarative instrumentation description.
type Spec struct {
	Package     string       `json:"package"`
	Executable  string       `json:"executable"`
	Application string       `json:"application"`
	Sensors     []SensorSpec `json:"sensors"`
}

// SensorSpec describes one sensor to generate.
type SensorSpec struct {
	ID    string `json:"id"`
	Attr  string `json:"attr"`
	Kind  string `json:"kind"`            // "rate", "jitter", "gauge"
	Param string `json:"param,omitempty"` // window (rate) / nominal spacing (jitter)
}

func main() {
	specPath := flag.String("spec", "", "instrumentation spec (JSON)")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "qosgen: -spec is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	must(err)
	code, err := Generate(data)
	must(err)
	if *out == "" {
		fmt.Print(string(code))
		return
	}
	must(os.WriteFile(*out, code, 0o644))
	fmt.Fprintf(os.Stderr, "qosgen: wrote %s\n", *out)
}

// Generate produces gofmt-formatted instrumentation wiring from spec
// JSON. The output is syntax-checked before being returned.
func Generate(specJSON []byte) ([]byte, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(specJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("qosgen: bad spec: %w", err)
	}
	if err := validate(spec); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, viewOf(spec)); err != nil {
		return nil, fmt.Errorf("qosgen: template: %w", err)
	}
	formatted, err := format.Source(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("qosgen: generated code does not format: %w\n%s", err, buf.String())
	}
	// Belt and braces: the generated file must parse as Go.
	if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", formatted, 0); err != nil {
		return nil, fmt.Errorf("qosgen: generated code does not parse: %w", err)
	}
	return formatted, nil
}

func validate(spec Spec) error {
	if spec.Package == "" || spec.Executable == "" || spec.Application == "" {
		return fmt.Errorf("qosgen: package, executable and application are required")
	}
	if len(spec.Sensors) == 0 {
		return fmt.Errorf("qosgen: at least one sensor is required")
	}
	seen := map[string]bool{}
	for _, s := range spec.Sensors {
		if s.ID == "" || s.Attr == "" {
			return fmt.Errorf("qosgen: sensor needs id and attr: %+v", s)
		}
		if seen[s.ID] {
			return fmt.Errorf("qosgen: duplicate sensor id %q", s.ID)
		}
		seen[s.ID] = true
		switch s.Kind {
		case "rate", "jitter":
			if _, err := time.ParseDuration(s.Param); err != nil {
				return fmt.Errorf("qosgen: sensor %s (%s) needs a duration param: %v", s.ID, s.Kind, err)
			}
		case "gauge":
			if s.Param != "" {
				return fmt.Errorf("qosgen: gauge sensor %s takes no param", s.ID)
			}
		default:
			return fmt.Errorf("qosgen: sensor %s: unknown kind %q (rate|jitter|gauge)", s.ID, s.Kind)
		}
	}
	return nil
}

// view is the template input.
type view struct {
	Spec
	Struct string
}

func viewOf(s Spec) view {
	return view{Spec: s, Struct: exportName(s.Executable) + "Instrumentation"}
}

// exportName converts mpeg_play -> MpegPlay.
func exportName(s string) string {
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == '_' || r == '-' || r == '.' })
	var sb strings.Builder
	for _, p := range parts {
		sb.WriteString(strings.ToUpper(p[:1]) + p[1:])
	}
	return sb.String()
}

func fieldName(id string) string {
	n := exportName(id)
	return strings.TrimSuffix(n, "Sensor")
}

var tmpl = template.Must(template.New("gen").Funcs(template.FuncMap{
	"field": fieldName,
}).Parse(`// Code generated by qosgen; DO NOT EDIT.
//
// Instrumentation wiring for executable {{.Executable}} of application
// {{.Application}}. Place the probe calls (Tick/Set) at the strategic
// points of the program; everything else — sensors, coordinator,
// registration — is assembled here.

package {{.Package}}

import (
	"time"

	"softqos"
)

// {{.Struct}} bundles the generated sensors and coordinator.
type {{.Struct}} struct {
	Coord *softqos.LiveCoordinator
{{- range .Sensors}}
{{- if eq .Kind "rate"}}
	// {{field .ID}} monitors {{.Attr}}.
	{{field .ID}} *softqos.RateSensor
{{- else if eq .Kind "jitter"}}
	// {{field .ID}} monitors {{.Attr}}.
	{{field .ID}} *softqos.JitterSensor
{{- else}}
	// {{field .ID}} monitors {{.Attr}}.
	{{field .ID}} *softqos.ValueSensor
{{- end}}
{{- end}}
}

// New{{.Struct}} builds the instrumentation and registers the process
// with the policy agent at agentAddr, reporting violations to the QoS
// host manager at managerAddr.
func New{{.Struct}}(pid int, userRole, agentAddr, managerAddr string) (*{{.Struct}}, error) {
	id := softqos.Identity{
		PID:         pid,
		Executable:  "{{.Executable}}",
		Application: "{{.Application}}",
		UserRole:    userRole,
	}
	coord := softqos.NewLiveCoordinator(id, agentAddr, managerAddr, softqos.Kit{})
	clock := coord.WallClock()
	_ = clock
	inst := &{{.Struct}}{Coord: coord}
{{- range .Sensors}}
{{- if eq .Kind "rate"}}
	inst.{{field .ID}} = softqos.NewRateSensor("{{.ID}}", "{{.Attr}}", clock, mustDur("{{.Param}}"))
	coord.AddSensor(inst.{{field .ID}})
{{- else if eq .Kind "jitter"}}
	inst.{{field .ID}} = softqos.NewJitterSensor("{{.ID}}", "{{.Attr}}", clock, mustDur("{{.Param}}"))
	coord.AddSensor(inst.{{field .ID}})
{{- else}}
	inst.{{field .ID}} = softqos.NewValueSensor("{{.ID}}", "{{.Attr}}", nil)
	coord.AddSensor(inst.{{field .ID}})
{{- end}}
{{- end}}
	if err := coord.Register(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Close releases the coordinator's management connections.
func (i *{{.Struct}}) Close() { i.Coord.Close() }

func mustDur(s string) time.Duration {
	d, err := time.ParseDuration(s)
	if err != nil {
		panic(err)
	}
	return d
}
`))

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qosgen:", err)
		os.Exit(1)
	}
}
