#define NUM_HART 8
#include <det_omp.h>

int data[NUM_HART];
int out[1];

void fill(int t) { data[t] = t * 3; }

void main(void) {
    int t; int s;
    omp_set_num_threads(NUM_HART);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) fill(t);
    __roi_start();
    s = 0;
    for (t = 0; t < NUM_HART; t++) s += data[t];
    out[0] = s;
    __roi_end();
}
