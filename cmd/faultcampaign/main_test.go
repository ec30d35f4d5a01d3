package main

import (
	"strings"
	"testing"
)

func TestValidateBPRejectsNegative(t *testing.T) {
	err := validateBP("droprate", -1)
	if err == nil {
		t.Fatal("negative rate accepted")
	}
	for _, want := range []string{"-droprate", "-1", "negative", "[0, 10000]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestValidateBPRejectsOverFullScale(t *testing.T) {
	err := validateBP("corruptrate", 10001)
	if err == nil {
		t.Fatal("rate above 10000 accepted")
	}
	for _, want := range []string{"-corruptrate", "10001", "10000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestValidateBPAcceptsBounds(t *testing.T) {
	for _, v := range []int{0, 1, 50, 10000} {
		if err := validateBP("duprate", v); err != nil {
			t.Errorf("validateBP(%d) = %v, want nil", v, err)
		}
	}
}

func TestValidateBPFlagsNamesTheOffender(t *testing.T) {
	flags := []bpFlag{
		{"droprate", 50},
		{"duprate", 0},
		{"delayrate", 10000},
		{"reorderrate", 20000},
		{"corruptrate", -3},
	}
	err := validateBPFlags(flags)
	if err == nil {
		t.Fatal("out-of-range flag set accepted")
	}
	if !strings.Contains(err.Error(), "-reorderrate") {
		t.Errorf("error %q should name the first offending flag -reorderrate", err)
	}
	if err := validateBPFlags(flags[:3]); err != nil {
		t.Errorf("all-valid prefix rejected: %v", err)
	}
}
