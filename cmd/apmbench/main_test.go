package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseNodes pins strict -nodes parsing: every entry must be a
// positive integer, and a bad entry fails naming itself instead of being
// dropped (which used to narrow the sweep, or widen it to the default when
// nothing parsed).
func TestParseNodes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		bad  string // entry the error must name; "" expects success
	}{
		{in: "1,2,4,8,12", want: []int{1, 2, 4, 8, 12}},
		{in: "3", want: []int{3}},
		{in: " 1, 2 ", want: []int{1, 2}},
		{in: "4x,2", bad: `"4x"`},
		{in: "x", bad: `"x"`},
		{in: "2,0", bad: `"0"`},
		{in: "-1", bad: `"-1"`},
		{in: "1,,2", bad: `""`},
		{in: "", bad: `""`},
		{in: "1.5", bad: `"1.5"`},
	} {
		got, err := parseNodes(tc.in)
		if tc.bad == "" {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseNodes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseNodes(%q) = %v, want an error naming %s", tc.in, got, tc.bad)
		} else if !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("parseNodes(%q) error %q does not name %s", tc.in, err, tc.bad)
		}
	}
}
