class A {
    int f(int[] xs) {
        int n = 1;
        n = 0;
        n += xs.length;
        return n;
    }

    int g(int[] xs) {
        int n = 0;
        n += xs.length;
        return n * 2;
    }
}
