package temporal_test

import (
	"fmt"

	"stac/internal/temporal"
)

func ExampleActivations() {
	// A permission with a 10-second validity duration under the
	// global base-time scheme (Expression 4.1), conferred by the
	// object's session.
	var acts temporal.Activations[string]
	session := temporal.KeySet[string]{"p-read": temporal.GlobalBase}
	at := func(now float64) temporal.PermState {
		v, _ := acts.Validity("p-read", 10, now)
		return v.State
	}
	acts.Arrive()
	acts.Activate(&session, 0)
	fmt.Println("t=5: ", at(5))
	acts.Deactivate(&session, 5) // 5s consumed; accumulation pauses
	acts.Activate(&session, 100)
	fmt.Println("t=104:", at(104))
	fmt.Println("t=106:", at(106)) // 10s consumed in total
	// Output:
	// t=5:  valid
	// t=104: valid
	// t=106: active-but-invalid
}

func ExampleEvalDC() {
	// Theorem 4.1: the Expression 4.1 safety property as a decidable
	// duration-calculus query — no prefix may accumulate more than
	// dur of valid time.
	valid := temporal.NewState(
		temporal.Interval{Begin: 0, End: 2},
		temporal.Interval{Begin: 5, End: 8},
	)
	f := temporal.WithinBudget("valid", 4)
	window := temporal.Interval{Begin: 0, End: 10}
	fmt.Println(temporal.EvalDC(f, temporal.States{"valid": valid}, window))
	fmt.Println(temporal.EvalDC(temporal.WithinBudget("valid", 5),
		temporal.States{"valid": valid}, window))
	// Output:
	// false
	// true
}

func ExampleState_Integral() {
	s := temporal.NewState(temporal.Interval{Begin: 1, End: 3})
	s.SetOn(6, 9)
	fmt.Println(s.Integral(0, 10))
	fmt.Println(s.Integral(2, 7))
	// Output:
	// 5
	// 2
}
