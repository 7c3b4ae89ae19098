/* Generated heterogeneous driver. Do not edit. */
#include "hstream_runtime.h"

#define BLOCK_SIZE 256

static void gpu_stage_Triad(int start, int finish) {
    int myN = finish - start;
    double *d_b;
    double *d_c;
    double *d_a;
    cudaCheckError(cudaMalloc((void **)&d_b, sizeof(double)*myN));
    cudaCheckError(cudaMalloc((void **)&d_c, sizeof(double)*myN));
    cudaCheckError(cudaMalloc((void **)&d_a, sizeof(double)*myN));
    cudaCheckError(cudaMemcpy(d_b, b + start, sizeof(double)*myN, cudaMemcpyHostToDevice));
    cudaCheckError(cudaMemcpy(d_c, c + start, sizeof(double)*myN, cudaMemcpyHostToDevice));
    cudaCheckError(cudaMemcpy(d_a, a + start, sizeof(double)*myN, cudaMemcpyHostToDevice));
    GPU_Triad<<<(myN + BLOCK_SIZE - 1) / BLOCK_SIZE, BLOCK_SIZE>>>(d_b, d_c, d_a, scalar, myN);
    cudaCheckError(cudaMemcpy(a + start, d_a, sizeof(double)*myN, cudaMemcpyDeviceToHost));
    cudaCheckError(cudaFree(d_b));
    cudaCheckError(cudaFree(d_c));
    cudaCheckError(cudaFree(d_a));
}

int main(void) {
    hstream_platform_load("DISA");
    hstream_register("Triad", HSTREAM_OPENMP, CPU_Triad);
    hstream_register("Triad", HSTREAM_CUDA, GPU_Triad);
    hstream_register("Triad", HSTREAM_LEO, MIC_Triad);
    hstream_execute("Triad", "*", "4096");
    return 0;
}
