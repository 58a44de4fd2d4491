package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestDurationJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"30s"`, 30 * time.Second},
		{`"1m30s"`, 90 * time.Second},
		{`"0s"`, 0},
		{`1500000000`, 1500 * time.Millisecond}, // bare nanoseconds
	}
	for _, tc := range cases {
		var d Duration
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.in, err)
		}
		if time.Duration(d) != tc.want {
			t.Errorf("unmarshal %s: got %s, want %s", tc.in, time.Duration(d), tc.want)
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Duration
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip %s via %s: %v", tc.in, out, err)
		}
		if back != d {
			t.Errorf("round trip %s: %s came back as %s", tc.in, d, back)
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"banana"`), &d); err == nil {
		t.Error("unmarshal of a non-duration string succeeded")
	}
}

func TestLoadOptionsSparseFileKeepsDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	body := `{"mem": 262144, "wal_dir": "/tmp/wal", "wal_sync": "5ms", "read_timeout": "2m"}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	opts, err := LoadOptions(path)
	if err != nil {
		t.Fatal(err)
	}
	if opts.MemoryBytes != 262144 || opts.WALDir != "/tmp/wal" {
		t.Errorf("file keys not applied: %+v", opts)
	}
	if time.Duration(opts.WALSync) != 5*time.Millisecond {
		t.Errorf("wal_sync = %s, want 5ms", time.Duration(opts.WALSync))
	}
	if time.Duration(opts.ReadTimeout) != 2*time.Minute {
		t.Errorf("read_timeout = %s, want 2m", time.Duration(opts.ReadTimeout))
	}
	def := DefaultOptions()
	if opts.Addr != def.Addr || opts.LogLevel != def.LogLevel || opts.DrainTimeout != def.DrainTimeout {
		t.Errorf("unnamed keys drifted from defaults: %+v", opts)
	}
	if err := opts.Validate(); err != nil {
		t.Errorf("sparse config failed validation: %v", err)
	}
}

func TestLoadOptionsRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(`{"wal_dirr": "/tmp/wal"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOptions(path); err == nil {
		t.Fatal("typoed key accepted silently")
	} else if !strings.Contains(err.Error(), "wal_dirr") {
		t.Errorf("error does not name the offending key: %v", err)
	}
}

// TestLoadOptionsRejectsRemovedKeys: a config file written for a server
// that still had pipelined ingest must fail to load, naming the key,
// rather than start a server that silently ignores it.
func TestLoadOptionsRejectsRemovedKeys(t *testing.T) {
	for _, tc := range []struct{ key, value string }{
		{"pipeline", "true"},
		{"pipeline_ring", "64"},
		{"shed_highwater", "0.9"},
		{"restart_budget", "3"},
	} {
		path := filepath.Join(t.TempDir(), "config.json")
		body := `{"` + tc.key + `": ` + tc.value + `}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadOptions(path); err == nil {
			t.Errorf("%s: removed key accepted", body)
		} else if !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("%s: error does not name the key: %v", body, err)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero mem", func(o *Options) { o.MemoryBytes = 0 }},
		{"negative alpha", func(o *Options) { o.Alpha = -1 }},
		{"decay of 1", func(o *Options) { o.Decay = 1 }},
		{"negative shards", func(o *Options) { o.Shards = -2 }},
		{"bad log level", func(o *Options) { o.LogLevel = "loud" }},
		{"negative wal segment", func(o *Options) { o.WALSegment = -1 }},
		{"negative tenant quota", func(o *Options) { o.TenantQuota = -3 }},
		{"negative read timeout", func(o *Options) { o.ReadTimeout = Duration(-time.Second) }},
	}
	for _, tc := range bad {
		o := DefaultOptions()
		tc.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestApplyFlagIngestPrecedence pins the three-way precedence of the
// binary-ingest fields the way an operator experiences it: built-in
// defaults, overridden by a -config file, overridden again by exactly
// the flags set on the command line — the other file-provided fields
// must survive untouched.
func TestApplyFlagIngestPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	body := `{"ingest_addr": ":7000", "ingest_udp": ":7001", "ingest_max_frame": 65536}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	opts, err := LoadOptions(path)
	if err != nil {
		t.Fatal(err)
	}

	// The operator set only -ingest-addr and -ingest-max-frame; the flag
	// struct holds their parsed values (and defaults everywhere else).
	flags := DefaultOptions()
	flags.IngestAddr = ":9000"
	flags.IngestMaxFrame = 1 << 20
	for _, name := range []string{"ingest-addr", "ingest-max-frame"} {
		if !opts.ApplyFlag(name, flags) {
			t.Fatalf("ApplyFlag(%q) found no field", name)
		}
	}

	if opts.IngestAddr != ":9000" {
		t.Errorf("ingest_addr = %q, want the flag value :9000", opts.IngestAddr)
	}
	if opts.IngestMaxFrame != 1<<20 {
		t.Errorf("ingest_max_frame = %d, want the flag value %d", opts.IngestMaxFrame, 1<<20)
	}
	if opts.IngestUDP != ":7001" {
		t.Errorf("ingest_udp = %q, want the config-file value :7001", opts.IngestUDP)
	}
	ic := opts.IngestOptions()
	if ic.Addr != ":9000" || ic.UDPAddr != ":7001" || ic.MaxFrameBytes != 1<<20 {
		t.Errorf("IngestOptions did not carry the resolved values: %+v", ic)
	}
}

// TestApplyFlagCoversEveryField proves the flag → field mapping is
// total: for every Options field, the flag name derived from its JSON
// tag (underscores as dashes) must land on exactly that field. A new
// field with a tag is therefore covered by sigserver's flag.Visit loop
// with no further wiring.
func TestApplyFlagCoversEveryField(t *testing.T) {
	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			t.Fatalf("field %s has no JSON tag; ApplyFlag cannot reach it", rt.Field(i).Name)
		}
		flagName := strings.ReplaceAll(tag, "_", "-")

		// Build a donor whose field i differs from the zero value, apply,
		// and check that exactly that field changed.
		var from, got Options
		fv := reflect.ValueOf(&from).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString("x")
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Float64:
			fv.SetFloat(1.5)
		default:
			fv.SetInt(42) // int, int64 and Duration all land here
		}
		if !got.ApplyFlag(flagName, from) {
			t.Errorf("ApplyFlag(%q) found no field for %s", flagName, rt.Field(i).Name)
			continue
		}
		if got != from {
			t.Errorf("ApplyFlag(%q) changed the wrong field: got %+v, want %+v", flagName, got, from)
		}
	}
	var o Options
	if o.ApplyFlag("config", DefaultOptions()) {
		t.Error("ApplyFlag(\"config\") claimed a field; -config has none")
	}
	if o != (Options{}) {
		t.Errorf("unknown flag mutated options: %+v", o)
	}
}

// TestOptionsJSONTagsCoverEveryFlagField keeps the Options ↔ flag
// correspondence honest from the config side: marshaling the defaults
// must produce a JSON object whose keys decode back without tripping
// DisallowUnknownFields, i.e. MarshalJSON and UnmarshalJSON agree on
// the schema.
func TestOptionsJSONTagsCoverEveryFlagField(t *testing.T) {
	data, err := json.Marshal(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts, err := LoadOptions(path)
	if err != nil {
		t.Fatal(err)
	}
	if opts != DefaultOptions() {
		t.Errorf("defaults did not survive a marshal/load round trip:\n got %+v\nwant %+v", opts, DefaultOptions())
	}
}
