class A {
    int h(int n, int... xs) {
        int k = xs.length;
        k += n;
        return k;
    }

    int g(int n, int[] xs) {
        int k = xs.length;
        k += n;
        return k;
    }
}
