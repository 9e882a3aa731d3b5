package main

import (
	"strings"
	"testing"
)

func validFlags() serveFlags {
	return serveFlags{
		listen: "127.0.0.1:0",
		sms:    8,
		stepN:  3,
		stepP:  3,
	}
}

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*serveFlags)
		wantErr string // "" = valid
	}{
		{"defaults", func(f *serveFlags) {}, ""},
		{"full", func(f *serveFlags) {
			f.weights = "w.json"
			f.profiles = "profiles"
			f.samples = "samples.jsonl"
			f.weightsOut = "live.json"
			f.minRetrain = 16
			f.maxBody = 1 << 20
		}, ""},
		{"empty-listen", func(f *serveFlags) { f.listen = "" }, "-listen"},
		{"negative-min-retrain", func(f *serveFlags) { f.minRetrain = -1 }, "-min-retrain"},
		{"zero-sms", func(f *serveFlags) { f.sms = 0 }, "-sms"},
		{"negative-sms", func(f *serveFlags) { f.sms = -3 }, "-sms"},
		{"one-sm", func(f *serveFlags) { f.sms = 1 }, ""},
		{"baseline-sms", func(f *serveFlags) { f.sms = 32 }, ""},
		{"sms-above-baseline", func(f *serveFlags) { f.sms = 33 }, "-sms"},
		{"zero-stepn", func(f *serveFlags) { f.stepN = 0 }, "strides"},
		{"zero-stepp", func(f *serveFlags) { f.stepP = 0 }, "strides"},
		{"negative-max-body", func(f *serveFlags) { f.maxBody = -1 }, "-max-body"},
		{"out-clobbers-in", func(f *serveFlags) {
			f.weights = "w.json"
			f.weightsOut = "w.json"
		}, "-weights-out"},
		{"pprof-off", func(f *serveFlags) { f.pprofAddr = "" }, ""},
		{"pprof-separate", func(f *serveFlags) { f.pprofAddr = "127.0.0.1:9667" }, ""},
		{"pprof-on-service-port", func(f *serveFlags) { f.pprofAddr = f.listen }, "-pprof"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFlags()
			tc.mutate(&f)
			err := validateServeFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
