package main

import "fmt"

// check is one output check; a run with a failed check exits non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func passed(name string) check { return check{Name: name, OK: true} }

func failed(name, detail string) check { return check{Name: name, Detail: detail} }

func checkEq(name string, got, want int64) check {
	if got != want {
		return failed(name, fmt.Sprintf("%d != %d", got, want))
	}
	return passed(name)
}

func allPassed(cs []check) bool {
	for _, c := range cs {
		if !c.OK {
			return false
		}
	}
	return true
}
