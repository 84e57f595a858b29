/* A minimal program whose observables diverge under EVERY
 * `--sabotage codegen:*` kind, used by the CLI red checks
 * (`tests/golden_cli.rs`) and the differential suite:
 *
 *   - chunk-bounds: the team of 4 loses its last member, so acc[3]
 *     keeps its initial zero instead of 4.
 *   - index-shift: each member writes its neighbour's slot.
 *   - const-fold:  `W - 1` is an immediate-immediate subtraction the
 *     sabotaged folder turns into an addition (4 becomes 6).
 *
 * Unsabotaged it diffs clean, like every shipped example.
 */
#define W 5
int acc[8];
void main(void) {
    int t;
    omp_set_num_threads(4);
#pragma omp parallel for
    for (t = 0; t < 4; t++) {
        acc[t] = t + 1;
    }
    acc[4] = acc[0] + (W - 1);
}
