package main

import (
	"reflect"
	"testing"

	"kpj/internal/router"
)

func TestParseReplicas(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []router.ReplicaConfig
	}{
		{"", nil},
		{"http://a:1,http://b:2", []router.ReplicaConfig{{URL: "http://a:1"}, {URL: "http://b:2"}}},
		{"east=http://a:1, west=http://b:2", []router.ReplicaConfig{
			{Name: "east", URL: "http://a:1"}, {Name: "west", URL: "http://b:2"}}},
		// An '=' inside the URL is not a name separator.
		{"http://a:1/?x=y", []router.ReplicaConfig{{URL: "http://a:1/?x=y"}}},
		{"r=http://a:1/?x=y", []router.ReplicaConfig{{Name: "r", URL: "http://a:1/?x=y"}}},
		// Blank entries (stray or trailing commas, spaces) are skipped.
		{" ,http://a:1,, ,", []router.ReplicaConfig{{URL: "http://a:1"}}},
	} {
		if got := parseReplicas(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseReplicas(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
